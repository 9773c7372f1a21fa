#!/usr/bin/env python3
"""End-to-end benchmark of the freqsel CLI.

Run from the repository root:

    python3 bench/run.py --workload block_320x64 --seed 1 --seconds 50 --trace 0

Inputs come from this script's own numpy generator, seeded by --seed, never
from ``freqsel oracle``, and are written with ``numpy.save`` as ``<f4``
files under ``.bench_work/``. The correct answer is planted: each image
keeps a fixed background of spatial frequencies within two bins of DC
across timesteps, plus a diagonal detail sinusoid whose amplitude peaks at
a timestep t*. The two spectra are disjoint, so every image's HFR, and
therefore the per-timestep mean, is largest at t*.

``--trace 0`` runs the real CLI (``python -m freqsel`` with PYTHONPATH=src)
in child processes, each started through ``launch.py`` so that its wall
time, CPU and peak RSS are its own, one pipeline run at a time (closed
loop), until --seconds have passed, and prints the ``end_to_end`` metrics of
BENCHMARK.json. Timings are medians over the pipeline runs; ``setup_s`` is
the median wall time of fresh interpreters that import freqsel and load the
workload's manifest, one started after each pipeline run, so the set-up
samples span the whole measured window.

``--trace 1`` calls ``freqsel.cli.main`` in this process with the same
arguments, alternating untraced and traced pipeline runs, and prints the
``per_layer`` metrics: the lower median over the traced runs of each figure
spans.py records (an observed value, so counts stay whole),
``<module>.errors`` summed over them, and ``trace.overhead`` = median
traced wall / median untraced wall - 1.

Every pipeline run's outputs are checked, and a run that exits non-zero or
fails a check counts as failed. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The full record,
with the environment, goes to ``.bench_results/``.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

TOTAL_TIMESTEPS = 1000
CUTOFF = 30.0  # the CLI default, passed explicitly so the reference uses the same value
LOW_BAND = 2  # background frequencies lie within this many bins of DC
PEAK_AMPLITUDE = 1.0  # detail RMS at t*, relative to the unit-RMS background
BUMP_WIDTH = 200.0  # timesteps; detail amplitude is a Gaussian bump around t*
CLEAN_DETAIL = 0.5  # detail amplitude of the clean maps fed to simulate
# loose enough for a kernel that agrees with numpy.fft to ~1e-13, far
# tighter than any wrong answer
RTOL = 1e-9
MIN_RUNS = 5  # pipeline runs (and set-up starts) per measurement, even past --seconds
# untimed pipeline runs for this long first: they fill the page cache, compile
# freqsel's bytecode, and bring simulate's create-and-delete cycle of files
# to its steady cost
WARMUP_S = 5.0
CLI_TIMEOUT_S = 120.0
MB = float(1 << 20)


@dataclass(frozen=True)
class Workload:
    name: str
    shape: tuple[int, int, int]  # (channels, height, width) of one map
    images: int  # images per timestep; clean maps for simulate
    timesteps: tuple[int, ...]  # dataset grid, or simulate's output grid
    threads: int = 1  # hfr --threads: a fixed value, at most nproc
    simulate: bool = False

    @property
    def maps(self) -> int:
        """Maps read per hfr pipeline run, or maps written per simulate run."""
        return self.images * len(self.timesteps)


# BENCHMARK.json lists the workloads the regression gate runs, and why.
# latent_4x64 (the commonest dump, where per-map overhead and read/parse
# show) and wide_1280x16 (where the 2C+2 scalar pairwise_sum calls per map
# are ~35% of cost) are for runs by hand: on a 2-vCPU VM their maps_per_s
# spread over ten seeds reached 0.2 of the median, too wide for the gate.
# So is simulate_4x64: it creates 656 files per run, and on such a VM the
# kernel time of creating a file swung tenfold from minute to minute, so
# its maps_per_s spread over ten seeds reached 0.26. simulate_320x64 runs
# the same code on 12 maps of 5 MB, where the noise stream, not file
# creation, is the cost.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("latent_4x64", (4, 64, 64), 48, (1,) + tuple(range(50, 1001, 50))),
        Workload("block_320x64", (320, 64, 64), 2, (200, 400, 600, 800), threads=2),
        Workload("wide_1280x16", (1280, 16, 16), 4, (200, 400, 600, 800)),
        Workload(
            "simulate_4x64", (4, 64, 64), 16, tuple(range(1, 1000, 25)) + (1000,), simulate=True
        ),
        Workload("simulate_320x64", (320, 64, 64), 2, (1, 200, 400, 600, 800, 1000), simulate=True),
    )
}


class CheckFailed(Exception):
    """A pipeline run's outputs are wrong."""


# ---------------------------------------------------------------- inputs


@dataclass
class Inputs:
    manifest: Path
    t_star: int = 0  # hfr workloads: the planted answer
    reference: tuple[float, ...] = ()  # hfr workloads: numpy.fft mean HFR per timestep
    clean: tuple[np.ndarray, ...] = ()  # simulate: the clean maps as written


def _rng(workload: Workload, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, zlib.crc32(workload.name.encode())])


def _coords(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    return np.arange(h)[:, np.newaxis] / h, np.arange(w)[np.newaxis, :] / w


def _backgrounds(rng, n: int, shape) -> list[np.ndarray]:
    """Unit-RMS fields made only of frequencies within LOW_BAND bins of DC."""
    c, h, w = shape
    y, x = _coords(h, w)
    band = range(-LOW_BAND, LOW_BAND + 1)
    args = [2 * np.pi * (ky * y + kx * x) for ky in band for kx in band if ky * ky + kx * kx <= LOW_BAND**2]
    basis = np.stack([np.cos(a) for a in args] + [np.sin(a) for a in args]).reshape(-1, h * w)
    fields = []
    for _ in range(n):
        field = (rng.standard_normal((c, basis.shape[0])) @ basis).reshape(c, h, w)
        fields.append(field / np.sqrt(np.mean(field * field)))
    return fields


def _detail(rng, shape) -> np.ndarray:
    """Unit-RMS diagonal sinusoid at 3/8 of the grid, one phase per channel.

    Its bins (f, f) and (-f, -f) are distinct (2f < size) and lie outside the
    background band, so detail and background energies add exactly.
    """
    c, h, w = shape
    y, x = _coords(h, w)
    f = 3 * min(h, w) // 8
    phases = rng.uniform(0.0, 2 * np.pi, c)
    return np.sqrt(2.0) * np.sin(2 * np.pi * f * (y + x) + phases[:, np.newaxis, np.newaxis])


def _gain_sq(h: int, w: int) -> np.ndarray:
    """Squared Gaussian high-pass gains in unshifted DFT layout."""
    dy = (np.arange(h) + h // 2) % h - h // 2
    dx = (np.arange(w) + w // 2) % w - w // 2
    d2 = dy[:, np.newaxis] ** 2 + dx[np.newaxis, :] ** 2
    g = 1.0 - np.exp(-d2 / (2.0 * CUTOFF * CUTOFF))
    return g * g


def _reference_hfr(x: np.ndarray, g2: np.ndarray) -> float:
    power = np.abs(np.fft.fft2(x.astype(np.float64))) ** 2
    return float((power * g2).sum() / power.sum())


def _write_manifest(path: Path, entries: list[dict]) -> None:
    path.write_text(json.dumps({"total_timesteps": TOTAL_TIMESTEPS, "entries": entries}))


def build_inputs(workload: Workload, seed: int, data: Path) -> Inputs:
    """Write the workload's dataset under `data`; untimed."""
    data.mkdir(parents=True)
    rng = _rng(workload, seed)
    backgrounds = _backgrounds(rng, workload.images, workload.shape)
    entries = []
    if workload.simulate:
        clean = []
        for i, background in enumerate(backgrounds):
            x = (background + CLEAN_DETAIL * _detail(rng, workload.shape)).astype("<f4")
            np.save(data / f"clean_i{i:03d}.npy", x)
            entries.append({"path": f"clean_i{i:03d}.npy", "image_id": f"img{i:03d}", "timestep": 1, "group": "bench"})
            clean.append(x)
        _write_manifest(data / "manifest.json", entries)
        return Inputs(data / "manifest.json", clean=tuple(clean))

    grid = workload.timesteps
    t_star = grid[int(rng.integers(1, len(grid) - 1))]
    g2 = _gain_sq(*workload.shape[1:])
    reference = []
    for t in grid:
        amplitude = PEAK_AMPLITUDE * np.exp(-0.5 * ((t - t_star) / BUMP_WIDTH) ** 2)
        ratios = []
        for i, background in enumerate(backgrounds):
            x = (background + amplitude * _detail(rng, workload.shape)).astype("<f4")
            name = f"t{t:04d}_i{i:03d}.npy"
            np.save(data / name, x)
            entries.append({"path": name, "image_id": f"img{i:03d}", "timestep": t, "group": "bench"})
            ratios.append(_reference_hfr(x, g2))
        reference.append(float(np.mean(ratios)))
    _write_manifest(data / "manifest.json", entries)
    return Inputs(data / "manifest.json", t_star=t_star, reference=tuple(reference))


def pipeline(workload: Workload, inputs: Inputs, seed: int) -> list[list[str]]:
    """CLI argument lists of one pipeline run.

    Outputs are named relative to the run's own working directory, so the
    report, which echoes its input paths, has the same bytes in every run.
    """
    if workload.simulate:
        grid = ",".join(str(t) for t in workload.timesteps)
        return [
            ["simulate", "--manifest", str(inputs.manifest), "--timesteps", grid,
             "--seed", str(seed), "--dtype", "f32", "--out", "sim"],
        ]
    return [
        ["hfr", "--manifest", str(inputs.manifest), "--cutoff", repr(CUTOFF),
         "--threads", str(workload.threads), "--out", "curve.csv"],
        ["select", "--curve", "curve.csv", "--cutoff", repr(CUTOFF), "--out", "report.json"],
    ]


# ---------------------------------------------------------------- checks


def _check_hfr(workload: Workload, inputs: Inputs, out: Path) -> bytes:
    """Verify curve and report; returns their bytes for the identity check."""
    try:
        curve = (out / "curve.csv").read_bytes()
        report_bytes = (out / "report.json").read_bytes()
        report = json.loads(report_bytes)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"missing or unreadable output: {exc}")
    lines = curve.decode("ascii", "replace").splitlines()
    if not lines or lines[0] != "t,mean_hfr,n":
        raise CheckFailed("curve CSV header is not 't,mean_hfr,n'")
    try:
        rows = [(int(t), float(mean), int(n)) for t, mean, n in (line.split(",") for line in lines[1:])]
    except ValueError as exc:
        raise CheckFailed(f"malformed curve row: {exc}")
    if [r[0] for r in rows] != list(workload.timesteps):
        raise CheckFailed("curve timesteps differ from the dataset grid")
    for (t, mean, n), expected in zip(rows, inputs.reference):
        if n != workload.images:
            raise CheckFailed(f"t={t}: n={n}, expected {workload.images}")
        if not abs(mean - expected) <= RTOL * abs(expected):
            raise CheckFailed(f"t={t}: mean_hfr {mean!r} differs from numpy.fft reference {expected!r}")
    if report.get("selected_t") != inputs.t_star:
        raise CheckFailed(f"selected_t {report.get('selected_t')} != planted t* {inputs.t_star}")
    return curve + report_bytes


def _check_noise(eps: np.ndarray) -> None:
    """Reject a sample that does not look like N(0, 1) at 6 sigma."""
    n = eps.size
    mean, var = float(eps.mean()), float(eps.var())
    inside = float(np.mean(np.abs(eps) < 1.0))
    p = 0.6826894921370859  # P(|z| < 1)
    if (
        abs(mean) > 6 / np.sqrt(n)
        or abs(var - 1) > 6 * np.sqrt(2 / n)
        or abs(inside - p) > 6 * np.sqrt(p * (1 - p) / n)
    ):
        raise CheckFailed(f"recovered noise is not N(0,1): mean={mean} var={var} P(|z|<1)={inside}")


def _check_simulate(workload: Workload, inputs: Inputs, out: Path, full: bool) -> bytes:
    """Verify the simulated dataset; `full` also loads every tensor."""
    sim = out / "sim"
    try:
        manifest_bytes = (sim / "manifest.json").read_bytes()
        entries = json.loads(manifest_bytes)["entries"]
        blobs = [(sim / e["path"]).read_bytes() for e in entries]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"missing or unreadable output: {exc}")
    if len(entries) != workload.maps:
        raise CheckFailed(f"{len(entries)} entries, expected {workload.maps}")
    if full:
        index = {f"img{i:03d}": i for i in range(workload.images)}
        eps = []
        for entry, blob in zip(entries, blobs):
            try:
                x = np.load(io.BytesIO(blob))
                z0 = inputs.clean[index[entry["image_id"]]].astype(np.float64)
            except (ValueError, KeyError) as exc:
                raise CheckFailed(f"{entry['path']}: {exc!r}")
            if x.shape != workload.shape or x.dtype != np.dtype("<f4") or not np.isfinite(x).all():
                raise CheckFailed(f"{entry['path']}: shape {x.shape} dtype {x.dtype} or non-finite values")
            alpha = entry["timestep"] / TOTAL_TIMESTEPS
            if alpha >= 0.9:
                eps.append(((x - (1.0 - alpha) * z0) / alpha).ravel())
        _check_noise(np.concatenate(eps))
    return manifest_bytes + b"".join(blobs)


@dataclass
class Checker:
    """Checks each run's outputs, and that their bytes match the first run's."""

    workload: Workload
    inputs: Inputs
    digest: str | None = None

    def __call__(self, out: Path) -> None:
        if self.workload.simulate:
            blob = _check_simulate(self.workload, self.inputs, out, full=self.digest is None)
        else:
            blob = _check_hfr(self.workload, self.inputs, out)
        digest = hashlib.sha256(blob).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise CheckFailed("output bytes differ from the first run's")


# ---------------------------------------------------------------- child processes


@dataclass
class Proc:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], log: Path, cwd: Path = ROOT) -> Proc:
    """Run one child to completion through launch.py.

    Wall, CPU and peak RSS are the child's own, from wait4 in launch.py
    (see there for why run.py does not start the child itself).
    """
    result = log.with_suffix(".usage.json")
    result.unlink(missing_ok=True)
    launcher = [sys.executable, str(BENCH / "launch.py"), str(result), repr(CLI_TIMEOUT_S), *argv]
    with open(log, "wb") as fh:
        proc = subprocess.Popen(launcher, stdout=fh, stderr=subprocess.STDOUT, env=_child_env(), cwd=cwd)
    try:
        proc.wait(CLI_TIMEOUT_S + 30.0)
    except BaseException:
        # launch.py kills and reaps its command on SIGTERM
        proc.terminate()
        proc.wait()
        raise
    try:
        usage = json.loads(result.read_text())
    except (OSError, ValueError) as exc:
        raise RuntimeError(f"launch.py exited {proc.returncode} without a result: {exc}")
    return Proc(usage["returncode"], usage["wall_s"], usage["cpu_s"], usage["rss_kib"] * 1024 / MB)


def run_step(args: list[str], log: Path, cwd: Path) -> Proc:
    return spawn([sys.executable, "-m", "freqsel", *args], log, cwd)


def measure_setup(manifest: Path, log: Path) -> float:
    """Wall time of one fresh interpreter that imports freqsel and loads `manifest`."""
    argv = [sys.executable, "-c", "import sys, freqsel; freqsel.load_manifest(sys.argv[1])", str(manifest)]
    proc = spawn(argv, log)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}: {log.read_text()[-2000:]}")
    return proc.wall_s


# ---------------------------------------------------------------- measurement


def _fresh_out(work: Path) -> Path:
    """An empty output directory for the next pipeline run.

    The previous run's outputs are deleted first, so a benchmark run never
    holds more than one run's files: keeping them all pushed simulate_4x64's
    ~1 GB past the kernel's dirty-page threshold, and the writeback slowed
    every later run.
    """
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    return out


def _tail(log: Path) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def _warm_up(once) -> None:
    deadline = time.perf_counter() + WARMUP_S
    while time.perf_counter() < deadline:
        once()


def measure_cli(workload, inputs, seed, seconds, work, check) -> tuple[dict, list[dict], dict]:
    """Closed loop of child-process pipeline runs for `seconds`.

    A set-up start follows each pipeline run, never overlapping it, so a
    slow spell of the host moves both medians alike instead of a burst of
    set-up starts catching it whole.
    """

    def once() -> dict:
        out = _fresh_out(work)
        run = {"wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0, "error": None}
        for args in pipeline(workload, inputs, seed):
            log = work / f"{args[0]}.log"
            proc = run_step(args, log, out)
            run["wall_s"] += proc.wall_s
            run["cpu_s"] += proc.cpu_s
            run["rss_mb"] = max(run["rss_mb"], proc.rss_mb)
            if proc.returncode != 0:
                run["error"] = f"{args[0]} exited {proc.returncode}: {_tail(log)}"
                return run
        try:
            check(out)
        except CheckFailed as exc:
            run["error"] = str(exc)
        return run

    _warm_up(once)
    runs, setup = [], []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_RUNS or time.perf_counter() < deadline:
        runs.append(once())
        setup.append(measure_setup(inputs.manifest, work / "setup.log"))
    timed = [r for r in runs if r["error"] is None] or runs
    metrics = {
        "maps_per_s": statistics.median(workload.maps / r["wall_s"] for r in timed),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in timed),
        "cpu_ms_per_map": statistics.median(1000.0 * r["cpu_s"] / workload.maps for r in timed),
        "success_rate": sum(r["error"] is None for r in runs) / len(runs),
    }
    return metrics, runs, {"setup_s": setup}


def measure_traced(workload, inputs, seed, seconds, work, check) -> tuple[dict, list[dict], dict]:
    """Alternate untraced and traced in-process pipeline runs for `seconds`."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import freqsel.cli

    from spans import SpanRecorder

    recorder = SpanRecorder()

    def once(traced: bool) -> dict:
        out = _fresh_out(work)
        run = {"traced": traced, "wall_s": 0.0, "error": None}
        recorder.reset()
        if traced:
            recorder.install()
        os.chdir(out)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                for args in pipeline(workload, inputs, seed):
                    t0 = time.perf_counter()
                    code = freqsel.cli.main(args)
                    run["wall_s"] += time.perf_counter() - t0
                    if code != 0:
                        run["error"] = f"{args[0]} returned {code}: {err.getvalue().strip()}"
                        break
        finally:
            recorder.uninstall()
            os.chdir(ROOT)
        if run["error"] is None:
            try:
                check(out)
            except CheckFailed as exc:
                run["error"] = str(exc)
        if traced:
            run["layers"] = recorder.summary(workload.threads)
        return run

    _warm_up(lambda: once(False))
    runs = []
    deadline = time.perf_counter() + seconds
    while len(runs) < 2 * MIN_RUNS or time.perf_counter() < deadline:
        order = (False, True) if len(runs) % 4 == 0 else (True, False)
        runs += [once(traced) for traced in order]

    traced = [r for r in runs if r["traced"]]
    untraced = [r for r in runs if not r["traced"]]
    metrics = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        metrics[name] = sum(values) if name.endswith(".errors") else statistics.median_low(values)
    metrics["trace.overhead"] = (
        statistics.median(r["wall_s"] for r in traced) / statistics.median(r["wall_s"] for r in untraced) - 1.0
    )
    # the last traced run's spans, written out only now
    return metrics, runs, {"spans_last_traced_run": recorder.spans}


# ---------------------------------------------------------------- reporting


def _git_sha() -> str | None:
    """HEAD's SHA, or None outside a git checkout (source_sha256 still names the code)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "freqsel").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _host_steal_s() -> float | None:
    """CPU seconds the hypervisor gave to others, summed over this VM's CPUs.

    Steal is time this machine's vCPUs were ready but not run: on a shared
    host it stretches wall times without adding CPU time. None where
    /proc/stat has no steal column.
    """
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def environment(seed: int | None = None) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "seed": seed,
    }


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Build inputs, measure, write the results file.

    Returns the result line and the reasons of the failed runs.
    """
    work = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = build_inputs(workload, seed, work / "data")
        check = Checker(workload, inputs)
        measure = measure_traced if trace else measure_cli
        steal0, t0 = _host_steal_s(), time.perf_counter()
        values, runs, extra = measure(workload, inputs, seed, seconds, work, check)
        steal1, window_s = _host_steal_s(), time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # the results file keeps every figure; the result line only the declared ones
    units = declared_units(trace)
    if not set(units) <= set(values):
        raise RuntimeError(f"BENCHMARK.json metrics not measured: {sorted(set(units) - set(values))}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    errors = [r["error"] for r in runs if r["error"]]
    result = {"correct": not errors, "attempted": len(runs), "failed": len(errors), "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    record = {
        "environment": environment(seed),
        "workload": dataclasses.asdict(workload),
        "seconds": seconds,
        "trace": trace,
        "window_s": window_s,
        "host_steal_s": None if steal0 is None or steal1 is None else round(steal1 - steal0, 2),
        "t_star": inputs.t_star or None,
        "result": result,
        "all_metrics": values,
        "runs": runs,
        **extra,
    }
    path = RESULTS / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record) + "\n")
    return result, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a SIGTERM unwinds like an exception: the running child is stopped and
    # waited for, and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "freqsel" / "__init__.py").is_file():
        print(f"error: no freqsel sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    result, errors = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    for error in errors:
        print(f"failed: {error}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
