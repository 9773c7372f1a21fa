"""Command-line interface.

Subcommands
-----------
  hfr        mean high-frequency-ratio curve over a dataset -> CSV
  select     pick the timestep with the highest mean HFR -> report JSON
  decompose  split one tensor into high/low frequency parts
  fisher     label-based separability per timestep (diagnostic only)
  simulate   noise clean features along a schedule -> new dataset
  oracle     write a synthetic dataset with a known correct answer
  correlate  Pearson/Spearman between two t,value series

Each process loads only what its command runs:

* :func:`main` builds the parser of the command its first argument
  names, and no other. ``--help``, a missing command and an unknown
  command build all seven, whose names their messages list.
* Only the array work imports numpy: each ``cmd_*`` imports the array
  modules it uses when it runs, so ``--help``, usage errors and
  ``select --curve`` start without numpy. A command that reads a dataset
  loads and checks its manifest first (:mod:`freqsel.manifest` needs no
  numpy), so a missing or malformed manifest, or an entry whose file is
  missing, fails before numpy loads.
* The manifest and report records are ``NamedTuple`` classes and the
  curve a small slotted class, not dataclasses: ``dataclasses`` imports
  ``inspect`` and ``ast``, about 12 ms, so those same paths load neither.
  The records of the array modules stay dataclasses, since numpy imports
  ``inspect``.

A process started as ``freqsel`` or ``python -m freqsel`` keeps OpenSSL's
``_hashlib`` out, which ``numpy.random`` would load, and freezes its heap
after :func:`main` returns (see :mod:`freqsel.__main__`), so that
interpreter shutdown does not walk numpy's objects. :func:`main` itself
never freezes: a caller in the same process goes on using its heap.

Exit codes: 0 success, 1 usage errors (bad flags/values), 2 data errors
(malformed or missing files, empty datasets, degenerate statistics). Data
errors print a single ``ErrorClass: detail`` line on stderr. File outputs
are written atomically, and reruns of the same command line produce
byte-identical files; ``--threads`` only changes wall time, never bytes,
which is why it is excluded from the config echoed into reports.
``--threads N`` runs N workers: the calling thread and N - 1 helper
threads (plain ``threading``; no executor, so neither
``concurrent.futures`` nor ``logging`` is loaded). It defaults to 1 for
``hfr`` and ``select``, whose workers each score a map as its file is
read and hold about 0.8 MiB of chunk scratch, not the map. ``simulate``
has no such flag: its workers each hold pieces of a map, so it runs one
per CPU the process may use, the calling thread among them.

These workers are the CLI's only parallelism: run as ``python -m freqsel``
or the ``freqsel`` script, it runs BLAS on one thread unless a BLAS or
OpenMP thread variable is set (``__main__`` sets ``OMP_NUM_THREADS=1``
before numpy loads). An idle OpenBLAS worker spins for about 0.1 s of CPU
in every process, and the per-channel matmuls of the bench's maps gain
nothing from it. To give BLAS more threads, set ``OPENBLAS_NUM_THREADS``
(or ``MKL_NUM_THREADS``, ``BLIS_NUM_THREADS``, ``OMP_NUM_THREADS``): the
cost of one thread is on maps of one large channel, where ``hfr
--threads 1`` loses BLAS's second core. Bytes never depend on it.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

from .defaults import DEFAULT_CUTOFF, DEFAULT_TOTAL_TIMESTEPS, MAX_TIMESTEPS
from .errors import (
    EmptyTimestep,
    FreqselError,
    IoFailure,
    ManifestSchemaError,
    SeriesInvalid,
)
from .fileio import atomic_write_bytes, atomic_write_json
from .manifest import load_manifest
from .selection import (
    HfrCurve,
    average_hfr,
    read_curve_csv,
    select_timestep,
    write_curve_csv,
    write_report_json,
)

__all__ = ["main", "build_parser", "parse_timestep_grid", "default_probe_grid"]


def _config(command: str, inputs: dict, **options) -> dict:
    """The knobs that determine output bytes, echoed into report JSON: the
    command, the options in call order (None dropped, tuples as lists),
    then the inputs.

    Thread count is deliberately never an option here: outputs must be
    byte-identical for any ``--threads`` value, so echoing it would make
    equal results look different.
    """
    echo: dict = {"command": command}
    for key, value in options.items():
        if value is not None:
            echo[key] = list(value) if isinstance(value, tuple) else value
    echo["inputs"] = inputs
    return echo


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; the stock ArgumentParser would exit 2, which
    # this tool reserves for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _finite_float(text: str, zero_ok: bool) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (math.isfinite(value) and (value >= 0.0 if zero_ok else value > 0.0)):
        raise argparse.ArgumentTypeError(f"must be finite and {'>=' if zero_ok else '>'} 0, got {text}")
    return value


def _positive_float(text: str) -> float:
    return _finite_float(text, zero_ok=False)


def _nonnegative_float(text: str) -> float:
    return _finite_float(text, zero_ok=True)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _timestep_count(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_TIMESTEPS:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_TIMESTEPS}, got {text}")
    return value


def parse_timestep_grid(text: str) -> tuple[int, ...]:
    """Grid syntax: comma list ``1,50,100`` or range ``start..stop..step``.

    Ranges include both endpoints: ``1..200..50`` is 1, 51, 101, 151, 200.
    A range of more than ``MAX_TIMESTEPS`` timesteps is refused before any
    is built. The grid is deduplicated and sorted ascending.
    """
    text = text.strip()
    try:
        if ".." in text:
            parts = text.split("..")
            if len(parts) not in (2, 3):
                raise ValueError("range needs start..stop or start..stop..step")
            start, stop = int(parts[0]), int(parts[1])
            step = int(parts[2]) if len(parts) == 3 else 1
            if step < 1:
                raise ValueError("step must be >= 1")
            if stop < start:
                raise ValueError("stop must be >= start")
            steps = range(start, stop + 1, step)
            count = len(steps) + (steps[-1] != stop)
            if count > MAX_TIMESTEPS:
                raise ValueError(f"range holds {count} timesteps, more than {MAX_TIMESTEPS}")
            values = set(steps) | {stop}
        else:
            values = {int(p) for p in text.split(",") if p.strip() != ""}
        if not values:
            raise ValueError("empty grid")
        if min(values) < 1:
            raise ValueError("timesteps must be >= 1")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad timestep grid {text!r}: {exc}")
    return tuple(sorted(values))


def default_probe_grid(total_timesteps: int) -> tuple[int, ...]:
    """t = 1 plus every multiple of 50 up to T (the usual probe grid)."""
    return tuple(sorted({1} | set(range(50, total_timesteps + 1, 50))))


def _usable_cpus() -> int:
    # the affinity mask is what a container or taskset actually grants
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return max(1, os.cpu_count() or 1)


def _threads_arg(text: str) -> int:
    return _usable_cpus() if text == "auto" else _positive_int(text)


def _shape_arg(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"--shape needs 'channels,height,width', got {text!r}")
    return tuple(_positive_int(p) for p in parts)


def _add_cutoff(sp) -> None:
    sp.add_argument(
        "--cutoff",
        type=_positive_float,
        default=DEFAULT_CUTOFF,
        help=f"Gaussian high-pass cutoff D0 (default {DEFAULT_CUTOFF:g})",
    )


def _add_dtype(sp) -> None:
    sp.add_argument("--dtype", choices=("f32", "f64"), default="f64", help="output element type")


def _add_timesteps(sp, help_text: str) -> None:
    sp.add_argument("--timesteps", type=parse_timestep_grid, default=None, help=help_text)


def _add_threads(sp) -> None:
    sp.add_argument(
        "--threads",
        type=_threads_arg,
        default=1,
        help="worker threads for per-map work, or 'auto' for every usable CPU; "
        "never changes output bytes (default 1)",
    )


def _check_out(path) -> None:
    """IoFailure unless an output file can go at `path` (or no file is asked
    for): its directory exists and it is not a directory itself, so a
    command fails before it reads a tensor."""
    parent = path and os.path.dirname(os.path.abspath(path))
    if parent and not os.path.isdir(parent):
        raise IoFailure(f"cannot write {path}: {parent} is not a directory")
    if path and os.path.isdir(path):
        raise IoFailure(f"cannot write {path}: it is a directory")


def _resolve_schedule(spec_text: str, total_timesteps: int, alpha_index: str):
    """The schedule `spec_text` names; under ``--alpha-index t-1`` shifted
    by one, so that t = 1 mixes with alpha = 0 and t = T with alpha_{T-1}."""
    from .diffusion import NoiseSchedule, linear_schedule, load_schedule_csv

    schedule = linear_schedule(total_timesteps) if spec_text == "linear" else load_schedule_csv(spec_text)
    if alpha_index == "t-1":
        return NoiseSchedule((0.0,) + schedule.alphas[:-1])
    return schedule


def _hfr_arguments(p) -> None:
    p.add_argument("--manifest", required=True, help="dataset manifest JSON")
    _add_cutoff(p)
    _add_timesteps(p, "grid to evaluate (default: every timestep in the manifest)")
    _add_threads(p)
    p.add_argument("--out", required=True, help="output curve CSV path")
    p.set_defaults(run=cmd_hfr)


def _select_arguments(p) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--manifest", help="dataset manifest JSON")
    source.add_argument("--curve", help="precomputed curve CSV (t,mean_hfr,n)")
    _add_cutoff(p)
    _add_timesteps(p, "grid to evaluate or keep (default: all available)")
    p.add_argument(
        "--tie-epsilon",
        type=_nonnegative_float,
        default=1e-4,
        help="report all t within this distance of the max (default 1e-4)",
    )
    _add_threads(p)
    p.add_argument("--out", default=None, help="optional report JSON path")
    p.set_defaults(run=cmd_select)


def _decompose_arguments(p) -> None:
    p.add_argument("--tensor", required=True, help="input tensor file")
    _add_cutoff(p)
    p.add_argument("--out-high", required=True, help="output path for the high-pass part")
    p.add_argument("--out-low", required=True, help="output path for the low-pass part")
    _add_dtype(p)
    p.set_defaults(run=cmd_decompose)


def _fisher_arguments(p) -> None:
    p.add_argument("--manifest", required=True, help="dataset manifest JSON with labels")
    _add_timesteps(p, "grid to evaluate (default: every timestep in the manifest)")
    p.add_argument("--out", default=None, help="optional JSON output path")
    p.set_defaults(run=cmd_fisher)


def _simulate_arguments(p) -> None:
    p.add_argument("--manifest", required=True, help="manifest of clean feature tensors")
    p.add_argument(
        "--schedule",
        default="linear",
        help="'linear' or a t,alpha CSV path (default linear)",
    )
    p.add_argument(
        "--total-timesteps",
        type=_timestep_count,
        default=DEFAULT_TOTAL_TIMESTEPS,
        help=f"T for the linear schedule (default {DEFAULT_TOTAL_TIMESTEPS})",
    )
    _add_timesteps(p, "grid to noise at (default: 1 plus every 50 up to T)")
    p.add_argument("--seed", type=int, default=0, help="noise stream seed (default 0)")
    p.add_argument(
        "--alpha-index",
        choices=("t", "t-1"),
        default="t",
        help="alpha lookup convention: alpha_t or alpha_{t-1} (default t)",
    )
    p.add_argument("--out", required=True, help="output dataset directory")
    _add_dtype(p)
    p.set_defaults(run=cmd_simulate)


def _oracle_arguments(p) -> None:
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--images", type=_positive_int, default=16, help="images per timestep (default 16)")
    p.add_argument("--shape", type=_shape_arg, default=(1, 32, 32), help="channels,height,width (default 1,32,32)")
    p.add_argument(
        "--total-timesteps",
        type=_timestep_count,
        default=DEFAULT_TOTAL_TIMESTEPS,
        help=f"T (default {DEFAULT_TOTAL_TIMESTEPS})",
    )
    _add_timesteps(p, "grid to materialise (default: 1 plus every 50 up to T)")
    p.add_argument("--peak-timestep", type=_positive_int, required=True, help="true best timestep t*")
    p.add_argument("--peak-amplitude", type=_positive_float, default=1.0, help="detail amplitude at t* (default 1)")
    p.add_argument("--base-amplitude", type=_positive_float, default=1.0, help="background RMS amplitude (default 1)")
    p.add_argument("--curve-width", type=_positive_float, default=100.0, help="width of the amplitude bump (default 100)")
    p.add_argument("--detail-frequency", type=_positive_int, default=8, help="diagonal detail frequency (default 8)")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    _add_dtype(p)
    p.set_defaults(run=cmd_oracle)


def _correlate_arguments(p) -> None:
    p.add_argument("--xs", required=True, help="first series CSV (t,value)")
    p.add_argument("--ys", required=True, help="second series CSV (t,value)")
    p.add_argument("--out", default=None, help="optional JSON output path")
    p.set_defaults(run=cmd_correlate)


# command -> its line in --help, and the function that adds its arguments.
# Each of those names its cmd_* function when the parser is built, so a
# caller that rebinds a cmd_* name in this module (a tracer) is heard.
_COMMANDS = {
    "hfr": ("mean HFR curve over a dataset -> CSV", _hfr_arguments),
    "select": ("argmax of the mean-HFR curve -> report", _select_arguments),
    "decompose": ("split one tensor into high/low parts", _decompose_arguments),
    "fisher": ("label-based separability per timestep (diagnostic)", _fisher_arguments),
    "simulate": ("noise clean features along a schedule", _simulate_arguments),
    "oracle": ("synthetic dataset with a known best timestep", _oracle_arguments),
    "correlate": ("Pearson/Spearman between two t,value series", _correlate_arguments),
}


def _parser(commands) -> argparse.ArgumentParser:
    """The parser of the named `commands`, in their order."""
    parser = _Parser(prog="freqsel", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in commands:
        help_line, add_arguments = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command."""
    return _parser(_COMMANDS)


def cmd_hfr(args) -> int:
    _check_out(args.out)
    manifest = load_manifest(args.manifest)
    curve = average_hfr(manifest, args.cutoff, args.timesteps, threads=args.threads)
    write_curve_csv(curve, args.out)
    print(f"wrote {len(curve)}-point curve to {args.out}")
    return 0


def _restrict_curve(curve: HfrCurve, timesteps: tuple[int, ...]) -> HfrCurve:
    wanted = set(timesteps)
    missing = sorted(wanted - set(curve.timesteps))
    if missing:
        raise EmptyTimestep(f"curve has no data at timesteps {missing}")
    keep = [i for i, t in enumerate(curve.timesteps) if t in wanted]
    return HfrCurve(
        tuple(curve.timesteps[i] for i in keep),
        tuple(curve.mean_hfr[i] for i in keep),
        tuple(curve.counts[i] for i in keep),
        curve.cutoff,
    )


def cmd_select(args) -> int:
    config = _config(
        "select",
        {"manifest": args.manifest} if args.manifest else {"curve": args.curve},
        cutoff=args.cutoff,
        timesteps=args.timesteps,
        tie_epsilon=args.tie_epsilon,
    )
    _check_out(args.out)
    if args.manifest:
        manifest = load_manifest(args.manifest)
        curve = average_hfr(manifest, args.cutoff, args.timesteps, threads=args.threads)
    else:
        curve = read_curve_csv(args.curve, args.cutoff)
        if args.timesteps is not None:
            curve = _restrict_curve(curve, args.timesteps)
    report = select_timestep(curve, args.tie_epsilon, config)
    if args.out:
        write_report_json(report, args.out)
    print(
        f"selected t={report.selected_timestep} mean_hfr={report.max_mean_hfr!r} "
        f"ties={list(report.ties)}"
    )
    return 0


def cmd_decompose(args) -> int:
    from .spectral import decompose
    from .tensor_io import _encode, read_tensor

    _check_out(args.out_high)
    _check_out(args.out_low)
    if os.path.realpath(args.out_high) == os.path.realpath(args.out_low):
        raise IoFailure(f"cannot write {args.out_low}: it is also --out-high")
    parts = decompose(read_tensor(args.tensor), args.cutoff)
    # both parts are cast and checked before either file is written
    high = _encode(parts.high.values, args.out_high, args.dtype)
    low = _encode(parts.low.values, args.out_low, args.dtype)
    atomic_write_bytes(args.out_high, high)
    atomic_write_bytes(args.out_low, low)
    print(f"decomposed {args.tensor} -> {args.out_high} + {args.out_low}")
    return 0


def cmd_fisher(args) -> int:
    _check_out(args.out)
    manifest = load_manifest(args.manifest)
    steps = args.timesteps if args.timesteps is not None else manifest.timesteps()
    for entry in manifest.entries:
        if entry.timestep in steps and entry.label is None:
            raise ManifestSchemaError(
                f"fisher needs a label on every entry; {entry.path} (t={entry.timestep}) has none"
            )
    from .discriminability import LabeledEmbeddingSet, fisher_score, pool_tokens
    from .tensor_io import _map_payloads

    pooled: dict[int, list] = {t: [] for t in steps}
    # each map is pooled chunk by chunk from its file, never held whole
    for entry, embedding in _map_payloads(manifest, pool_tokens, steps):
        pooled[entry.timestep].append((embedding, entry.label))
    rows = []
    for t in steps:
        try:
            result = fisher_score(LabeledEmbeddingSet(*zip(*pooled[t])))
        except FreqselError as exc:
            raise type(exc)(f"timestep {t}: {exc}") from None
        rows.append(
            {
                "t": t,
                "n": len(pooled[t]),
                "trace_between": _finite_or_none(result.trace_between),
                "trace_within": _finite_or_none(result.trace_within),
                "score": result.score,
            }
        )
        print(f"t={t} fisher={result.score!r} (n={len(pooled[t])})")
    if args.out:
        doc = {
            "per_timestep": rows,
            "note": "label-dependent diagnostic; selection itself never reads labels",
            "config": _config("fisher", {"manifest": args.manifest}, timesteps=args.timesteps),
        }
        atomic_write_json(args.out, doc)
    return 0


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def cmd_simulate(args) -> int:
    manifest = load_manifest(args.manifest)
    from .diffusion import simulate_forward

    schedule = _resolve_schedule(args.schedule, args.total_timesteps, args.alpha_index)
    grid = args.timesteps if args.timesteps is not None else default_probe_grid(schedule.total_timesteps)
    result = simulate_forward(manifest, schedule, grid, args.seed, args.out, args.dtype, _usable_cpus())
    print(f"wrote {len(result.entries)} noised tensors to {args.out}")
    return 0


def cmd_oracle(args) -> int:
    from .diffusion import OracleProfile, _check_oracle, gaussian_bump_curve, oracle_features

    # refused before a curve of up to MAX_TIMESTEPS values is built
    _check_oracle(args.shape, args.images, args.detail_frequency)
    total = args.total_timesteps
    grid = args.timesteps if args.timesteps is not None else default_probe_grid(total)
    profile = OracleProfile(
        peak_timestep=args.peak_timestep,
        base_low_freq_amplitude=args.base_amplitude,
        detail_amplitude_curve=gaussian_bump_curve(
            total, args.peak_timestep, args.peak_amplitude, args.curve_width
        ),
        detail_frequency=args.detail_frequency,
    )
    manifest = oracle_features(profile, args.images, args.shape, args.seed, args.out, grid, args.dtype)
    print(
        f"wrote {len(manifest.entries)} oracle tensors to {args.out} "
        f"(true peak t={args.peak_timestep})"
    )
    return 0


def cmd_correlate(args) -> int:
    from .discriminability import correlate, read_series_csv

    _check_out(args.out)
    xs_t, xs_v = read_series_csv(args.xs)
    ys_t, ys_v = read_series_csv(args.ys)
    if xs_t != ys_t:
        raise SeriesInvalid(
            f"series are not aligned: {args.xs} and {args.ys} cover different timesteps"
        )
    result = correlate(xs_v, ys_v)
    print(f"pearson={result.pearson!r} spearman={result.spearman!r} n={len(xs_v)}")
    if args.out:
        doc = {
            "pearson": result.pearson,
            "spearman": result.spearman,
            "n": len(xs_v),
            "config": _config("correlate", {"xs": args.xs, "ys": args.ys}),
        }
        atomic_write_json(args.out, doc)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # --help, a missing and an unknown command need every command's parser
    # for their message; a named command needs its own alone
    commands = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    parser = _parser(commands)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return 0 if exc.code is None else 1
    try:
        return args.run(args)
    except FreqselError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"IoFailure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
