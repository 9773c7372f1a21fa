"""Noise schedules, forward-process mixing, seeded noise, synthetic oracles.

Forward process
---------------
A clean feature map z0 is noised by convex interpolation against a pure
noise map: z_t = alpha * eps + (1 - alpha) * z0. At alpha = 0 this is the
identity on z0 and at alpha = 1 the identity on eps, exactly (0 * x + 1 * y
evaluates to y in IEEE-754 for finite x, y). The default schedule is linear,
alpha_t = t / T for t = 1..T. :func:`simulate_forward` applies it to a
whole dataset, holding one clean source in memory at a time, and noises
and writes each map in pieces, so no map-sized noise array exists.

Timestep t always mixes with the schedule's own alpha_t. The convention
that mixes t with alpha_{t-1} (``simulate --alpha-index t-1``) is a
shifted schedule, ``NoiseSchedule((0.0,) + schedule.alphas[:-1])``: t = 1
mixes with alpha = 0 (pure signal) and t = T with alpha_{T-1}.

Seeded noise
------------
Every draw comes from numpy's PCG64 ``Generator`` seeded by
``SeedSequence(seed mod 2^64, spawn_key=key)``: key ``(i, t)`` for the
noise of image i at timestep t and for the oracle's phases, ``(i, 0)`` for
the oracle's background. Each map is therefore regenerated from its key
alone, in any order, and reruns are byte-identical on one machine and
numpy version. A spawn key, unlike an entropy list, keeps trailing zeros
apart: ``(i, 0)`` and ``(i,)`` give different streams.

Synthetic oracle
----------------
:func:`oracle_features` writes a dataset whose high-frequency content is
controlled analytically: each image is a fixed low-frequency field (white
noise band-limited to radius <= 2 bins around DC, RMS-normalised) plus a
diagonal sinusoid at a known frequency whose amplitude follows a
caller-chosen per-timestep profile. The mean high-frequency ratio is then
strictly increasing in the detail amplitude, so the profile's argmax is the
provably correct selection answer. Like :func:`simulate_forward`, it works
image by image and holds one background field in memory at a time.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .defaults import DEFAULT_TOTAL_TIMESTEPS
from .errors import (
    FreqselError,
    FrequencyTooHigh,
    ProfileInvalid,
    ScheduleInvalid,
    ShapeMismatch,
)
from .fileio import read_csv
from .spectral import _hartley, _radius_sq
from .tensor_io import (
    _PIECE,
    DatasetManifest,
    ManifestEntry,
    map_loaded,
    save_manifest,
    write_array,
    write_pieces,
)

__all__ = [
    "DEFAULT_TOTAL_TIMESTEPS",
    "NoiseSchedule",
    "OracleProfile",
    "linear_schedule",
    "load_schedule_csv",
    "simulate_forward",
    "gaussian_bump_curve",
    "oracle_features",
]

_SCHEDULE_HEADER = ("t", "alpha")


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-timestep mixing coefficients alpha_1..alpha_T (1-based lookup)."""

    alphas: tuple[float, ...]

    def __post_init__(self) -> None:
        alphas = tuple(float(a) for a in self.alphas)
        if len(alphas) < 1:
            raise ScheduleInvalid("schedule must cover at least one timestep")
        if not all(np.isfinite(a) and 0.0 <= a <= 1.0 for a in alphas):
            raise ScheduleInvalid("every alpha must be finite and in [0, 1]")
        if any(b < a for a, b in zip(alphas, alphas[1:])):
            raise ScheduleInvalid("alphas must be non-decreasing in t")
        object.__setattr__(self, "alphas", alphas)

    @property
    def total_timesteps(self) -> int:
        return len(self.alphas)

    def alpha(self, t: int) -> float:
        if not 1 <= t <= len(self.alphas):
            raise ScheduleInvalid(f"timestep {t} outside schedule [1, {len(self.alphas)}]")
        return self.alphas[t - 1]


def linear_schedule(total_timesteps: int = DEFAULT_TOTAL_TIMESTEPS) -> NoiseSchedule:
    """alpha_t = t / T; reaches exactly 1 at t = T."""
    if total_timesteps < 1:
        raise ScheduleInvalid(f"total_timesteps must be >= 1, got {total_timesteps}")
    return NoiseSchedule(tuple(t / total_timesteps for t in range(1, total_timesteps + 1)))


def load_schedule_csv(path) -> NoiseSchedule:
    """Parse a ``t,alpha`` CSV covering t = 1..T contiguously."""
    rows = read_csv(path, _SCHEDULE_HEADER, (int, float), ScheduleInvalid)
    for expected, (lineno, (t, _)) in enumerate(rows, start=1):
        if t != expected:
            raise ScheduleInvalid(f"{path}: line {lineno} has t={t}; rows must run 1..T in order")
    try:
        return NoiseSchedule(tuple(alpha for _, (_, alpha) in rows))
    except ScheduleInvalid as exc:
        raise ScheduleInvalid(f"{path}: {exc}") from None


def _rng(seed: int, *key: int) -> np.random.Generator:
    """The generator for `key` under `seed`, by the keying rule above."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed % 2**64, spawn_key=key)))


def _check_grid(timesteps, total_timesteps: int, invalid: type[FreqselError]) -> tuple[int, ...]:
    """`timesteps` as a tuple, or `invalid` unless it is non-empty, strictly
    ascending and within [1, total_timesteps]."""
    grid = tuple(timesteps)
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise invalid("timestep grid must be non-empty, unique, ascending")
    if grid[0] < 1 or grid[-1] > total_timesteps:
        raise invalid(f"timestep grid must stay within [1, {total_timesteps}]")
    return grid


def _write_noised(z0: np.ndarray, alpha: float, rng: np.random.Generator, path, dtype: str) -> None:
    """Write z_t = alpha * eps + (1 - alpha) * z0 to `path`, eps the normals
    `rng` draws in z0's shape, one piece of ``_PIECE`` elements at a time.

    Consecutive ``standard_normal(out=...)`` calls continue one stream, so
    the pieces hold the bits of one whole-map draw, mixed by the same
    operations; no map-sized noise, temporary or payload exists.
    """
    flat = z0.reshape(-1)

    def pieces():
        buf = np.empty(min(flat.size, _PIECE))
        for start in range(0, flat.size, _PIECE):
            piece = buf[: min(_PIECE, flat.size - start)]
            rng.standard_normal(out=piece)
            piece *= alpha
            piece += (1.0 - alpha) * flat[start : start + piece.size]
            yield piece

    write_pieces(pieces(), z0.shape, path, dtype)


def simulate_forward(
    manifest: DatasetManifest,
    schedule: NoiseSchedule,
    timesteps: tuple[int, ...],
    seed: int,
    out_dir,
    dtype: str = "f64",
    threads: int = 1,
) -> DatasetManifest:
    """Noise every manifest entry at each grid timestep and write a new dataset.

    Every input entry is treated as a clean image regardless of its own
    timestep field. Noise for (entry i, timestep t) is drawn under key
    ``(i, t)``, so outputs are independent of the grid order and of how
    work is batched. The grid must be non-empty, strictly ascending and
    within the schedule (else ``ScheduleInvalid``), which is checked, and
    every alpha looked up, before any file is read or written.

    The loop is image-major and holds one clean source at a time: the
    last one is released before the next is read. With ``threads > 1`` the
    timesteps of a source of at least one piece (``_PIECE`` elements) are
    noised and written on a pool of up to `threads` workers, each holding
    pieces of a map, not a map; smaller sources stay on the calling
    thread. Results
    are consumed in grid order, so the reported fault is the first in
    (source, timestep) order for any thread count, and maps the pool
    finished after that fault are removed: a failed run leaves the maps
    one thread would have written before it stopped. The written manifest
    lists the outputs timestep-major and keeps the input's
    ``allow_ragged``.
    """
    timesteps = _check_grid(timesteps, schedule.total_timesteps, ScheduleInvalid)
    alphas = [schedule.alpha(t) for t in timesteps]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    by_timestep: list[list[ManifestEntry]] = [[] for _ in timesteps]
    workers = min(threads, len(timesteps))
    pool = ThreadPoolExecutor(workers) if workers > 1 else None

    def noise_source(i: int, entry: ManifestEntry, z0: np.ndarray) -> None:
        names = [f"t{t:04d}_i{i:04d}.npy" for t in timesteps]
        tasks = [
            (z0, alpha, _rng(seed, i, t), out / name, dtype)
            for t, alpha, name in zip(timesteps, alphas, names)
        ]
        # a map of less than one piece is noised in less time than a thread
        # takes to pick it up: the pool would add CPU and save no wall time
        if pool is None or z0.size < _PIECE:
            for task in tasks:
                _write_noised(*task)
        else:
            futures = [pool.submit(_write_noised, *task) for task in tasks]
            for k, future in enumerate(futures):
                if future.exception() is None:
                    continue
                # one thread writes no map after the first fault, so neither
                # may the pool: what a failed run leaves must not depend on
                # the thread count
                for later in futures[k + 1 :]:
                    later.cancel()
                for later, name in zip(futures[k + 1 :], names[k + 1 :]):
                    if not later.cancelled() and later.exception() is None:
                        (out / name).unlink(missing_ok=True)
                future.result()
        for t, name, row in zip(timesteps, names, by_timestep):
            row.append(ManifestEntry(name, entry.image_id, t, entry.group, entry.label, entry.accuracy))

    try:
        i = 0
        for entry, z0 in map_loaded(manifest, lambda fmap: fmap.values):
            noise_source(i, entry, z0)
            i += 1
            # one source at a time: this one goes before the next is read
            del z0
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    entries = tuple(e for row in by_timestep for e in row)
    result = DatasetManifest(schedule.total_timesteps, entries, manifest.allow_ragged, out)
    save_manifest(result, out / "manifest.json")
    return result


@dataclass(frozen=True)
class OracleProfile:
    """Ground-truth detail-amplitude profile with a unique peak.

    ``detail_amplitude_curve[t-1]`` is the sinusoid amplitude at timestep t;
    the curve must have its unique maximum at ``peak_timestep``, which is
    what a correct selection pipeline has to recover.
    """

    peak_timestep: int
    base_low_freq_amplitude: float
    detail_amplitude_curve: tuple[float, ...]
    detail_frequency: int

    def __post_init__(self) -> None:
        curve = tuple(float(a) for a in self.detail_amplitude_curve)
        if len(curve) < 1:
            raise ProfileInvalid("amplitude curve must cover at least one timestep")
        if not all(np.isfinite(a) and a >= 0.0 for a in curve):
            raise ProfileInvalid("amplitudes must be finite and >= 0")
        if not (self.base_low_freq_amplitude > 0.0 and np.isfinite(self.base_low_freq_amplitude)):
            raise ProfileInvalid("base low-frequency amplitude must be > 0")
        if self.detail_frequency < 1:
            raise ProfileInvalid(f"detail frequency must be >= 1, got {self.detail_frequency}")
        if not 1 <= self.peak_timestep <= len(curve):
            raise ProfileInvalid(
                f"peak timestep {self.peak_timestep} outside curve [1, {len(curve)}]"
            )
        peak = max(curve)
        if curve.count(peak) != 1 or curve[self.peak_timestep - 1] != peak:
            raise ProfileInvalid("amplitude curve must have its unique maximum at peak_timestep")
        object.__setattr__(self, "detail_amplitude_curve", curve)

    @property
    def total_timesteps(self) -> int:
        return len(self.detail_amplitude_curve)


def gaussian_bump_curve(
    total_timesteps: int, peak_timestep: int, peak_amplitude: float, width: float
) -> tuple[float, ...]:
    """Amplitude profile A * exp(-(t - t*)^2 / (2 * width^2)) for t = 1..T.

    The peak is set to its exact A: below width ~1.5e-154, 2 * width^2
    underflows to 0 and the formula would give 0/0 there, while every
    other t correctly goes to exp(-inf) = 0.
    """
    if width <= 0.0:
        raise ProfileInvalid(f"width must be > 0, got {width}")
    t = np.arange(1, total_timesteps + 1, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        curve = peak_amplitude * np.exp(-((t - peak_timestep) ** 2) / (2.0 * width**2))
    curve[t == peak_timestep] = peak_amplitude
    return tuple(float(a) for a in curve)


# band-limit radius (in centred frequency bins) of the oracle's background
LOW_BAND_RADIUS = 2.0


def _low_field(shape: tuple[int, int, int], amplitude: float, rng: np.random.Generator) -> np.ndarray:
    c, h, w = shape
    white = rng.standard_normal((c, h, w))
    hy, hx = _hartley(h), _hartley(w)
    # keep each channel's Hartley coefficients within the band, then transform back
    low = hy @ ((hy @ white @ hx) * (_radius_sq(h, w) <= LOW_BAND_RADIUS**2)) @ hx
    rms = float(np.sqrt(np.mean(low * low)))
    if rms == 0.0:
        raise ProfileInvalid("degenerate background field (all zeros); change the seed")
    return low * (amplitude / rms)


def _detail_pattern(shape: tuple[int, int, int], frequency: int, phases: np.ndarray) -> np.ndarray:
    c, h, w = shape
    hh = np.arange(h, dtype=np.float64)[:, np.newaxis] / h
    ww = np.arange(w, dtype=np.float64)[np.newaxis, :] / w
    arg = 2.0 * np.pi * frequency * (hh + ww)
    # exact unit RMS: the phase-dependent cross term sums to zero whenever
    # 2 * frequency is not a multiple of the grid size, which the
    # frequency bound guarantees
    return np.sqrt(2.0) * np.sin(arg[np.newaxis, :, :] + phases[:, np.newaxis, np.newaxis])


def oracle_features(
    profile: OracleProfile,
    n_images: int,
    shape: tuple[int, int, int],
    seed: int,
    out_dir,
    timesteps: tuple[int, ...] | None = None,
    dtype: str = "f64",
) -> DatasetManifest:
    """Write a synthetic dataset whose correct selection answer is known.

    Image i is a fixed band-limited background (independent of t, drawn
    under key ``(i, 0)``) plus a diagonal sinusoid at the profile's detail
    frequency with per-channel phases drawn under key ``(i, t)`` and
    amplitude ``curve[t-1]``. Because the background is identical across
    timesteps, the per-image high-frequency ratio is strictly increasing in
    the detail amplitude; a detail frequency >= 3 keeps the sinusoid
    spectrally clear of the background band. No noise schedule enters: the
    profile's curve fixes T and every amplitude. Writes tensors plus
    ``manifest.json`` into ``out_dir``.

    The loop is image-major, so one background is held at a time; the
    written manifest still lists the outputs timestep-major. A degenerate
    background at image k is reported after images 0..k-1 are written,
    and no manifest is written then.
    """
    c, h, w = (int(d) for d in shape)
    if min(c, h, w) < 1:
        raise ShapeMismatch(f"oracle shape must be positive, got {shape}")
    if n_images < 1:
        raise ProfileInvalid(f"need at least one image, got {n_images}")
    if 2 * profile.detail_frequency >= min(h, w):
        raise FrequencyTooHigh(
            f"detail frequency {profile.detail_frequency} needs a grid larger than "
            f"{h}x{w} (require 2 * frequency < min(H, W))"
        )
    total = profile.total_timesteps
    grid = _check_grid(range(1, total + 1) if timesteps is None else timesteps, total, ProfileInvalid)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    by_timestep: list[list[ManifestEntry]] = [[] for _ in grid]
    for i in range(n_images):
        low = _low_field((c, h, w), profile.base_low_freq_amplitude, _rng(seed, i, 0))
        for t, row in zip(grid, by_timestep):
            phases = 2.0 * np.pi * _rng(seed, i, t).random(c)
            detail = _detail_pattern((c, h, w), profile.detail_frequency, phases)
            name = f"t{t:04d}_img{i:04d}.npy"
            write_array(low + profile.detail_amplitude_curve[t - 1] * detail, out / name, dtype)
            row.append(ManifestEntry(name, f"img{i:04d}", t, "oracle"))
        # one background at a time: this one goes before the next is built
        del low, detail
    entries = tuple(e for row in by_timestep for e in row)
    manifest = DatasetManifest(total, entries, False, out)
    save_manifest(manifest, out / "manifest.json")
    return manifest
