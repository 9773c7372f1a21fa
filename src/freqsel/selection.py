"""Dataset-level HFR curves and automatic timestep selection.

A curve is the per-timestep mean of single-map high-frequency ratios over
a dataset. Selection is argmax over the curve; exact ties break toward the
smaller timestep, and every timestep whose mean lies within ``tie_epsilon``
of the maximum is reported so near-ties are visible rather than silently
resolved.

Curves, selection and reports need no numpy: only :func:`average_hfr`
imports the array modules, when it is called. Nor do they need
``dataclasses``, which imports ``inspect`` and ``ast``: a report is a
``NamedTuple`` (derive a changed one with ``_replace``) and a curve a
small immutable class, so ``select --curve`` loads neither.
"""
from __future__ import annotations

import math
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

from .defaults import DEFAULT_CUTOFF, checked_cutoff
from .errors import EmptyCurve, SeriesInvalid
from .fileio import atomic_write_json, atomic_write_text, csv_text, read_csv

if TYPE_CHECKING:
    from .manifest import DatasetManifest

__all__ = [
    "HfrCurve",
    "SelectionReport",
    "average_hfr",
    "select_timestep",
    "curve_to_csv_text",
    "write_curve_csv",
    "read_curve_csv",
    "report_to_dict",
    "write_report_json",
]

_CURVE_HEADER = ("t", "mean_hfr", "n")


class HfrCurve:
    """Mean HFR per timestep, with the sample count behind each mean.

    Immutable: the columns are checked and normalised to tuples of int,
    float and int on construction, and a curve is compared and hashed by
    its four fields.
    """

    __slots__ = ("timesteps", "mean_hfr", "counts", "cutoff")
    timesteps: tuple[int, ...]
    mean_hfr: tuple[float, ...]
    counts: tuple[int, ...]
    cutoff: float

    def __init__(self, timesteps, mean_hfr, counts, cutoff: float = DEFAULT_CUTOFF) -> None:
        ts = tuple(int(t) for t in timesteps)
        vs = tuple(float(v) for v in mean_hfr)
        ns = tuple(int(n) for n in counts)
        if not (len(ts) == len(vs) == len(ns)):
            raise SeriesInvalid(
                f"curve columns disagree: {len(ts)} timesteps, {len(vs)} values, {len(ns)} counts"
            )
        if any(t < 1 for t in ts) or any(b <= a for a, b in zip(ts, ts[1:])):
            raise SeriesInvalid("curve timesteps must be >= 1 and strictly increasing")
        if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in vs):
            raise SeriesInvalid("curve values must be finite and in [0, 1]")
        if any(n < 1 for n in ns):
            raise SeriesInvalid("curve counts must be >= 1")
        for name, value in zip(self.__slots__, (ts, vs, ns, checked_cutoff(cutoff))):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return (self.timesteps, self.mean_hfr, self.counts, self.cutoff)

    def __len__(self) -> int:
        return len(self.timesteps)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return "{}(timesteps={!r}, mean_hfr={!r}, counts={!r}, cutoff={!r})".format(
            type(self).__name__, *self._values()
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # copy and pickle rebuild a curve through its constructor, not by
    # setting its slots
    def __reduce__(self):
        return type(self), self._values()


class SelectionReport(NamedTuple):
    """The selected timestep, its mean HFR, every timestep within the tie
    distance, the curve, and the config echoed into the report JSON.

    ``config`` has no default: a NamedTuple's default is one object shared
    by every instance, and a dict must not be.
    """

    selected_timestep: int
    max_mean_hfr: float
    ties: tuple[int, ...]
    curve: HfrCurve
    config: dict


def average_hfr(
    manifest: DatasetManifest,
    cutoff: float = DEFAULT_CUTOFF,
    timesteps=None,
    threads: int = 1,
) -> HfrCurve:
    """Mean HFR per timestep over a manifest.

    Each map is scored as its file is read, chunk by chunk, by
    :func:`~freqsel.tensor_io._map_payloads`, under its rules; ``threads``
    only parallelises that per-map work, on the calling thread and
    ``threads - 1`` helpers. The calling thread scores maps at any count,
    so it keeps its ~0.8 MiB of scratch afterwards, as at ``threads=1``;
    the helpers' scratch goes with them. Each mean is the exactly rounded
    :func:`math.fsum` of its timestep's values over the count, so the curve
    is bit-identical for any thread count and any order of the manifest's
    entries.
    """
    from .spectral import hfr
    from .tensor_io import _map_payloads

    steps = manifest.timesteps() if timesteps is None else tuple(sorted({int(t) for t in timesteps}))
    by_timestep: dict[int, list[float]] = {t: [] for t in steps}
    for entry, value in _map_payloads(manifest, partial(hfr, cutoff=cutoff), steps, threads):
        by_timestep[entry.timestep].append(value)
    means = tuple(math.fsum(by_timestep[t]) / len(by_timestep[t]) for t in steps)
    counts = tuple(len(by_timestep[t]) for t in steps)
    return HfrCurve(steps, means, counts, float(cutoff))


def select_timestep(curve: HfrCurve, tie_epsilon: float = 1e-4, config: dict | None = None) -> SelectionReport:
    """Argmax of the curve; exact ties break toward the smaller timestep."""
    if len(curve) == 0:
        raise EmptyCurve("cannot select from an empty curve")
    if not tie_epsilon >= 0.0:
        raise ValueError(f"tie_epsilon must be >= 0, got {tie_epsilon}")
    best = max(curve.mean_hfr)
    selected = min(t for t, v in zip(curve.timesteps, curve.mean_hfr) if v == best)
    ties = tuple(t for t, v in zip(curve.timesteps, curve.mean_hfr) if best - v <= tie_epsilon)
    return SelectionReport(selected, best, ties, curve, dict(config or {}))


def curve_to_csv_text(curve: HfrCurve) -> str:
    return csv_text(_CURVE_HEADER, zip(curve.timesteps, curve.mean_hfr, curve.counts))


def write_curve_csv(curve: HfrCurve, path) -> None:
    atomic_write_text(path, curve_to_csv_text(curve))


def read_curve_csv(path, cutoff: float = DEFAULT_CUTOFF) -> HfrCurve:
    """Parse a ``t,mean_hfr,n`` CSV. The cutoff is not stored in the CSV and
    must be supplied by the caller (it is only echoed into reports)."""
    rows = [row for _, row in read_csv(path, _CURVE_HEADER, (int, float, int), SeriesInvalid)]
    ts, vs, ns = zip(*rows) if rows else ((), (), ())
    try:
        return HfrCurve(ts, vs, ns, float(cutoff))
    except SeriesInvalid as exc:
        raise SeriesInvalid(f"{path}: {exc}") from None


def report_to_dict(report: SelectionReport) -> dict:
    return {
        "selected_t": report.selected_timestep,
        "max_mean_hfr": report.max_mean_hfr,
        "ties": list(report.ties),
        "cutoff": report.curve.cutoff,
        "curve": [
            {"t": t, "mean_hfr": v, "n": n}
            for t, v, n in zip(report.curve.timesteps, report.curve.mean_hfr, report.curve.counts)
        ],
        "config": report.config,
    }


def write_report_json(report: SelectionReport, path) -> None:
    atomic_write_json(path, report_to_dict(report))
