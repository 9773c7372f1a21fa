"""Noise schedules, forward-process mixing, seeded noise, synthetic oracles.

Forward process
---------------
A clean feature map z0 is noised by convex interpolation against a pure
noise map: z_t = alpha * eps + (1 - alpha) * z0. At alpha = 0 this is the
identity on z0 and at alpha = 1 the identity on eps, exactly (0 * x + 1 * y
evaluates to y in IEEE-754 for finite x, y). The default schedule is linear,
alpha_t = t / T for t = 1..T. :func:`simulate_forward` applies it to a
whole dataset in pieces: each (source, timestep) job re-reads its clean
source from the file, which the page cache keeps, piece by piece beside
the noise it mixes with, so it holds pieces of ``_NOISE_PIECE`` elements
(512 KiB in all) and no source, noise or map. Only the oracle loads
:mod:`freqsel.spectral`, for its band-limited background.

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
provably correct selection answer. It shares :func:`simulate_forward`'s
dataset writer: image by image, one background field in memory at a time,
each map streamed to its file channel by channel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .defaults import DEFAULT_TOTAL_TIMESTEPS, MAX_TIMESTEPS
from .errors import (
    FreqselError,
    FrequencyTooHigh,
    IoFailure,
    MetaMismatch,
    ProfileInvalid,
    ScheduleInvalid,
    ShapeMismatch,
)
from .fileio import read_csv
from .manifest import DatasetManifest, ManifestEntry, save_manifest
from .tensor_io import _PIECE, FeatureMeta, _in_order, _map_payloads, _opened, write_pieces

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

# elements per piece that a simulate job reads, mixes and casts: 256 KiB of
# mix, 128 KiB of noise and a 128 KiB <f4 stage per worker. CPU per job on
# a 320x64x64 <f4 map, one thread: 26.0, 25.1 and 24.9 ms at 2^14, 2^15 and
# 2^16. A simulate child of two such maps on two threads peaks 1.05 MB
# lower at 2^15 than at 2^16, and 0.3 MB lower still at 2^14.
_NOISE_PIECE = 1 << 15


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
    """alpha_t = t / T; reaches exactly 1 at t = T. T is checked against
    [1, ``MAX_TIMESTEPS``] before any alpha is built."""
    if not 1 <= total_timesteps <= MAX_TIMESTEPS:
        raise ScheduleInvalid(f"total_timesteps must be in [1, {MAX_TIMESTEPS}], got {total_timesteps}")
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


def _write_noised(
    source: tuple[Path, tuple[int, ...]], alpha: float, rng: np.random.Generator, path, dtype: str
) -> None:
    """Write z_t = alpha * eps + (1 - alpha) * z0 to `path`, z0 the clean
    map in the tensor file ``source[0]``, of the (checked) shape
    ``source[1]``, and eps the normals `rng` draws in that shape, one piece
    of ``_NOISE_PIECE`` elements at a time.

    Each piece of z0 is read from the file, ``<f4`` widened exactly, and
    scaled by 1 - alpha in place in one float64 piece; eps is drawn into a
    half-piece buffer, half a piece at a time, scaled by alpha and added.
    Consecutive ``standard_normal(out=...)`` calls continue one stream and
    IEEE addition commutes, so each value has the bits of the formula on
    one whole-map draw. The reader's ``<f4`` stage, free once its z0 is
    mixed, is lent to the writer for the cast to ``<f4``: a job holds one
    piece, half a piece of noise and, for an ``f32`` source or output, a
    ``<f4`` stage, 512 KiB in all; no map-sized source, noise, temporary or
    payload exists.
    A read fault names the source and a write fault the output.
    """
    file, shape = source
    size = math.prod(shape)
    mix = np.empty(min(size, _NOISE_PIECE))
    eps = np.empty((mix.size + 1) // 2)
    stage = np.empty(mix.size, dtype="<f4") if dtype == "f32" else None

    def mixed(payload):
        nonlocal stage
        if payload.shape != shape:
            raise MetaMismatch(f"shape {payload.shape} is no longer the {shape} checked before")
        if stage is None and payload.meta.dtype == "f32":
            stage = np.empty(mix.size, dtype="<f4")
        for start in range(0, size, mix.size):
            piece = mix[: min(mix.size, size - start)]
            raw, _ = payload.read(piece, stage)
            np.multiply(raw, 1.0 - alpha, out=piece, dtype=np.float64)
            for j in range(0, piece.size, eps.size):
                noise = eps[: min(eps.size, piece.size - j)]
                rng.standard_normal(out=noise)
                noise *= alpha
                piece[j : j + noise.size] += noise
            yield piece

    write_pieces(_opened(file, FeatureMeta(), mixed), shape, path, dtype, stage=stage)


def _map_name(t: int, stem: str, i: int) -> str:
    return f"t{t:04d}_{stem}{i:04d}.npy"


def _write_dataset(sources, grid, make, stem: str, out_dir, threads: int, total: int, ragged: bool):
    """Write each source's map at each timestep of `grid`, then the manifest.

    `sources` yields (entry template, source, element count) triples;
    ``make(i, source, t, path)`` writes the map of source i at t, named
    ``t{t:04d}_{stem}{i:04d}.npy``. One source is held at a time. The
    timesteps of a source of at least one piece (``_PIECE`` elements) run
    on up to `threads` workers, the calling thread and helpers that are
    joined before the next source; a smaller one is written faster than a
    helper picks it up, so it runs on the calling thread alone. Under
    ``_in_order`` a fault is the first in (source, timestep) order and
    leaves the maps one thread would have left, and no manifest. The
    manifest lists the maps timestep-major.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    by_timestep: list[list[ManifestEntry]] = [[] for _ in grid]
    # a counter, not enumerate or zip: their cached result tuple would keep
    # the last source alive while the next one is made
    i = 0
    for entry, source, size in sources:
        tasks = [(t, out / _map_name(t, stem, i)) for t in grid]
        workers = min(threads, len(grid)) if size >= _PIECE else 1
        written = _in_order(
            lambda task: make(i, source, *task), tasks, workers,
            lambda task: task[1].unlink(missing_ok=True),
        )
        for _ in written:
            pass
        for (t, path), row in zip(tasks, by_timestep):
            row.append(entry._replace(path=path.name, timestep=t))
        i += 1
        del source
    manifest = DatasetManifest(total, tuple(e for row in by_timestep for e in row), ragged, out)
    save_manifest(manifest, out / "manifest.json")
    return manifest


def _check_not_inputs(manifest: DatasetManifest, grid: tuple[int, ...], out: Path) -> None:
    """IoFailure if a map ``simulate_forward`` would write is one of its
    inputs, which the writer could replace before reading it. Paths compare
    resolved, both as the file an entry names and as its directory entry,
    so a symlink on either side does not hide the clash."""
    root = out.resolve()
    inputs: dict[str, str] = {}
    for entry in manifest.entries:
        path = manifest.resolve(entry)
        for target in (path.resolve(), path.parent.resolve() / path.name):
            if target.parent == root:
                inputs.setdefault(target.name, entry.image_id)
    for i in range(len(manifest.entries)):
        for t in grid:
            name = _map_name(t, "i", i)
            if name in inputs:
                raise IoFailure(
                    f"cannot write {out / name}: it is input entry {inputs[name]} of the manifest"
                )


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
    every alpha looked up, before any file is read or written; so is that
    no map it writes is one of its inputs (else ``IoFailure``).

    Each source's header is checked under the load path's rules, in
    manifest order, before any of its maps is written. Each (source,
    timestep) job then re-reads the source, from the page cache, in pieces
    beside the noise: a fault in its values names the source, one in
    writing names the map. Up to `threads` workers each hold pieces, not a
    source or a map; the written manifest keeps the input's ``allow_ragged``.
    """
    timesteps = _check_grid(timesteps, schedule.total_timesteps, ScheduleInvalid)
    alphas = {t: schedule.alpha(t) for t in timesteps}
    _check_not_inputs(manifest, timesteps, Path(out_dir))

    def noise(i: int, source: tuple[Path, tuple[int, ...]], t: int, path: Path) -> None:
        _write_noised(source, alphas[t], _rng(seed, i, t), path, dtype)

    # each header is checked as its source comes up; no payload is read here
    sources = (
        (entry, (manifest.resolve(entry), shape), math.prod(shape))
        for entry, shape in _map_payloads(manifest, lambda payload: payload.shape)
    )
    return _write_dataset(
        sources, timesteps, noise, "i", out_dir, threads, schedule.total_timesteps, manifest.allow_ragged
    )


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
    other t correctly goes to exp(-inf) = 0. T above ``MAX_TIMESTEPS`` is
    refused before any value is built.
    """
    if total_timesteps > MAX_TIMESTEPS:
        raise ProfileInvalid(f"total_timesteps must be <= {MAX_TIMESTEPS}, got {total_timesteps}")
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
    # imported here: only the oracle transforms, so simulate never loads spectral
    from .spectral import _hartley, _radius_sq

    c, h, w = shape
    hy, hx = _hartley(h), _hartley(w)
    # keep each channel's Hartley coefficients within the band, then transform
    # back: the products of hy @ white @ hx, masked, in two map-sized buffers
    low, spare = rng.standard_normal((c, h, w)), np.empty((c, h, w))
    np.matmul(hy, low, out=spare)
    np.matmul(spare, hx, out=low)
    low *= _radius_sq(h, w) <= LOW_BAND_RADIUS**2
    np.matmul(hy, low, out=spare)
    np.matmul(spare, hx, out=low)
    rms = float(np.sqrt(np.mean(np.multiply(low, low, out=spare))))
    if rms == 0.0:
        raise ProfileInvalid("degenerate background field (all zeros); change the seed")
    low *= amplitude / rms
    return low


def _check_oracle(shape, n_images: int, detail_frequency: int) -> tuple[int, int, int]:
    """(c, h, w) of an oracle of `shape`, checked with its image count and
    detail frequency as :func:`oracle_features` checks them, so a caller can
    refuse them before it builds a profile."""
    c, h, w = (int(d) for d in shape)
    if min(c, h, w) < 1:
        raise ShapeMismatch(f"oracle shape must be positive, got {shape}")
    if n_images < 1:
        raise ProfileInvalid(f"need at least one image, got {n_images}")
    if 2 * detail_frequency >= min(h, w):
        raise FrequencyTooHigh(
            f"detail frequency {detail_frequency} needs a grid larger than "
            f"{h}x{w} (require 2 * frequency < min(H, W))"
        )
    return c, h, w


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

    A degenerate background at image k is reported after images 0..k-1
    are written, and no manifest is written then.
    """
    c, h, w = _check_oracle(shape, n_images, profile.detail_frequency)
    total = profile.total_timesteps
    grid = _check_grid(range(1, total + 1) if timesteps is None else timesteps, total, ProfileInvalid)

    hh = np.arange(h, dtype=np.float64)[:, np.newaxis] / h
    ww = np.arange(w, dtype=np.float64)[np.newaxis, :] / w
    arg = 2.0 * np.pi * profile.detail_frequency * (hh + ww)

    def backgrounds():
        for i in range(n_images):
            low = _low_field((c, h, w), profile.base_low_freq_amplitude, _rng(seed, i, 0))
            yield ManifestEntry("", f"img{i:04d}", 1, "oracle"), low, low.size
            # not held while the next background is made
            del low

    def detail(i: int, low: np.ndarray, t: int, path: Path) -> None:
        phases = 2.0 * np.pi * _rng(seed, i, t).random(c)
        amp = profile.detail_amplitude_curve[t - 1]
        # exact unit RMS: the phase-dependent cross term sums to zero whenever
        # 2 * frequency is not a multiple of the grid size, which the
        # frequency bound guarantees
        channels = (low[k] + amp * (np.sqrt(2.0) * np.sin(arg + phases[k])) for k in range(c))
        write_pieces(channels, (c, h, w), path, dtype)

    return _write_dataset(backgrounds(), grid, detail, "img", out_dir, 1, total, False)
