"""Noise schedules, forward-process mixing, seeded noise, synthetic oracles.

Forward process
---------------
A clean feature map z0 is noised by convex interpolation against a pure
noise map: z_t = alpha * eps + (1 - alpha) * z0. At alpha = 0 this is the
identity on z0 and at alpha = 1 the identity on eps, exactly (0 * x + 1 * y
evaluates to y in IEEE-754 for finite x, y). The default schedule is linear,
alpha_t = t / T for t = 1..T. :func:`simulate_forward` applies it to a
whole dataset, holding one clean source in memory at a time.

Timestep t always mixes with the schedule's own alpha_t. The convention
that mixes t with alpha_{t-1} (``simulate --alpha-index t-1``) is a
shifted schedule, ``NoiseSchedule((0.0,) + schedule.alphas[:-1])``: t = 1
mixes with alpha = 0 (pure signal) and t = T with alpha_{T-1}.

Noise generator (full contract)
-------------------------------
Noise is produced by a counter-based SplitMix64 stream feeding Box-Muller,
so any element can be regenerated from (seed, index) alone:

  * mix64(z): z ^= z >> 30, z *= 0xBF58476D1CE4E5B9; z ^= z >> 27,
    z *= 0x94D049BB133111EB; z ^= z >> 31 (all mod 2^64)
  * stream output j (0-based): mix64(seed + (j+1) * 0x9E3779B97F4A7C15 mod 2^64)
  * consecutive outputs (a, b) map to u1 = ((a >> 11) + 1) * 2^-53 in (0, 1]
    and u2 = (b >> 11) * 2^-53 in [0, 1)
  * Box-Muller: r = sqrt(-2 ln u1); the pair contributes r*cos(2 pi u2)
    then r*sin(2 pi u2); values fill the output in C order, odd tail dropped

Derived streams for (image, timestep, ...) are keyed by folding each field
into the seed with mix64 (see :func:`stream_seed`). The integer stream and
the uniforms are exact everywhere. The normals go through numpy's own
log/cos/sin (SIMD code, not the C library's), so they are bit-identical on
one machine with one numpy build, and agree to within a few ulp across
builds: against ``math.log``/``cos``/``sin`` about 0.2% of draws differ,
by at most 2 ulp. The stream is generated in fixed-size blocks, and the
bits do not depend on the block size.

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

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterator

import numpy as np

from .defaults import DEFAULT_TOTAL_TIMESTEPS
from .errors import (
    FrequencyTooHigh,
    ProfileInvalid,
    ScheduleInvalid,
    ShapeMismatch,
)
from .fileio import read_csv
from .tensor_io import (
    DatasetManifest,
    ManifestEntry,
    map_loaded,
    save_manifest,
    write_array,
)

__all__ = [
    "DEFAULT_TOTAL_TIMESTEPS",
    "NoiseSchedule",
    "OracleProfile",
    "linear_schedule",
    "load_schedule_csv",
    "standard_normal",
    "uniforms",
    "stream_seed",
    "simulate_forward",
    "gaussian_bump_curve",
    "oracle_features",
]

_SCHEDULE_HEADER = ("t", "alpha")

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31, _S11 = np.uint64(30), np.uint64(27), np.uint64(31), np.uint64(11)
_TWO_NEG_53 = 2.0 ** -53
# normal pairs generated per block: the work buffers stay a few hundred KB
_BLOCK_PAIRS = 1 << 15


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
    return NoiseSchedule(tuple(alpha for _, (_, alpha) in rows))


def _mix64(z: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of `z` into `out` (which may be `z`); all three
    are uint64 arrays of one shape, and `scratch` is overwritten."""
    np.right_shift(z, _S30, out=scratch)
    np.bitwise_xor(z, scratch, out=out)
    out *= _MIX1
    np.right_shift(out, _S27, out=scratch)
    out ^= scratch
    out *= _MIX2
    np.right_shift(out, _S31, out=scratch)
    out ^= scratch
    return out


def _mix64_int(z: int) -> int:
    a = np.array([z & _MASK64], dtype=np.uint64)
    return int(_mix64(a, a, np.empty_like(a))[0])


def _stream_blocks(seed: int, count: int, block: int) -> Iterator[tuple[int, np.ndarray]]:
    """Stream outputs 0..count-1 in consecutive chunks of at most `block`.

    Yields (start, bits) with bits[k] = output start + k. The buffers are
    reused: each chunk overwrites the previous one, so a caller must consume
    `bits` before asking for the next chunk.
    """
    n = min(block, count)
    keys = np.uint64(seed & _MASK64) + np.arange(1, n + 1, dtype=np.uint64) * _GAMMA
    step = np.uint64(n * int(_GAMMA) & _MASK64)
    bits = np.empty_like(keys)
    scratch = np.empty_like(keys)
    for start in range(0, count, max(n, 1)):
        m = min(n, count - start)
        yield start, _mix64(keys[:m], bits[:m], scratch[:m])
        keys += step


def stream_seed(root_seed: int, *fields: int) -> int:
    """Derive an independent stream seed by folding fields in order.

    Used to key noise and phases by (image index, timestep, ...) so that
    regenerating any single tensor never requires replaying a global stream.
    """
    h = _mix64_int(root_seed)
    for f in fields:
        h = _mix64_int(((h + int(_GAMMA)) & _MASK64) ^ _mix64_int(f))
    return h


def uniforms(count: int, seed: int) -> np.ndarray:
    """`count` doubles in [0, 1) from the documented stream."""
    if count < 0:
        raise ValueError("count must be >= 0")
    out = np.empty(count, dtype=np.float64)
    for start, bits in _stream_blocks(seed, count, 2 * _BLOCK_PAIRS):
        np.right_shift(bits, _S11, out=bits)
        np.multiply(bits, _TWO_NEG_53, out=out[start : start + bits.size])
    return out


def standard_normal(count: int, seed: int) -> np.ndarray:
    """`count` N(0,1) doubles from the documented SplitMix64 + Box-Muller stream.

    The stream is generated in blocks of at most ``_BLOCK_PAIRS`` pairs into
    reused buffers and written straight into the interleaved output. Every
    step is elementwise, so the bits do not depend on the block size.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    pairs = (count + 1) // 2
    out = np.empty(2 * pairs, dtype=np.float64)
    n = min(_BLOCK_PAIRS, pairs)
    u1_buf, u2_buf, cos_buf = np.empty(n), np.empty(n), np.empty(n)
    for start, bits in _stream_blocks(seed, 2 * pairs, 2 * _BLOCK_PAIRS):
        m = bits.size // 2
        u1, u2, c = u1_buf[:m], u2_buf[:m], cos_buf[:m]
        np.right_shift(bits, _S11, out=bits)
        # u1 = ((a >> 11) + 1) * 2^-53 in (0, 1], u2 = (b >> 11) * 2^-53 in [0, 1)
        np.add(bits[0::2], 1.0, out=u1)
        u1 *= _TWO_NEG_53
        np.multiply(bits[1::2], _TWO_NEG_53, out=u2)
        # r = sqrt(-2 ln u1), theta = 2 pi u2
        np.log(u1, out=u1)
        u1 *= -2.0
        np.sqrt(u1, out=u1)
        u2 *= 2.0 * np.pi
        np.cos(u2, out=c)
        np.multiply(u1, c, out=out[start : start + 2 * m : 2])
        np.sin(u2, out=u2)
        np.multiply(u1, u2, out=out[start + 1 : start + 2 * m : 2])
    return out[:count]


def simulate_forward(
    manifest: DatasetManifest,
    schedule: NoiseSchedule,
    timesteps: tuple[int, ...],
    seed: int,
    out_dir,
    dtype: str = "f64",
) -> DatasetManifest:
    """Noise every manifest entry at each grid timestep and write a new dataset.

    Every input entry is treated as a clean image regardless of its own
    timestep field. Noise for (entry i, timestep t) comes from
    ``stream_seed(seed, i, t)``, so outputs are independent of the grid
    order and of how work might be batched. Every alpha is looked up
    before any file is read or written.

    The loop is image-major, so one clean source is held at a time; the
    written manifest still lists the outputs timestep-major and keeps the
    input's ``allow_ragged``.
    """
    alphas = [schedule.alpha(t) for t in timesteps]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    by_timestep: list[list[ManifestEntry]] = [[] for _ in timesteps]
    for i, (entry, z0) in enumerate(map_loaded(manifest, lambda fmap: fmap.values)):
        for t, alpha, row in zip(timesteps, alphas, by_timestep):
            # z_t = alpha * eps + (1 - alpha) * z0, mixed in place into the
            # fresh noise; binding it to the one name frees the previous
            # map's before the mix allocates (1 - alpha) * z0
            noised = standard_normal(z0.size, stream_seed(seed, i, t)).reshape(z0.shape)
            noised *= alpha
            noised += (1.0 - alpha) * z0
            name = f"t{t:04d}_i{i:04d}.npy"
            write_array(noised, out / name, dtype)
            row.append(ManifestEntry(name, entry.image_id, t, entry.group, entry.label, entry.accuracy))
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


@lru_cache(maxsize=32)
def _low_band_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """In-grid bins k with |k| <= the band radius, and exp(2 pi i k y / n) per row y."""
    r = int(LOW_BAND_RADIUS)
    k = np.arange(max(-r, -(n // 2)), min(r, (n - 1) // 2) + 1)
    # the phase k*y is reduced mod n in integers to keep the argument small
    basis = np.exp(2j * np.pi * (np.outer(np.arange(n), k) % n) / n)
    k.setflags(write=False)
    basis.setflags(write=False)
    return k, basis


def _low_field(shape: tuple[int, int, int], amplitude: float, seed: int) -> np.ndarray:
    c, h, w = shape
    white = standard_normal(c * h * w, seed).reshape(c, h, w)
    ky, by = _low_band_basis(h)
    kx, bx = _low_band_basis(w)
    # the DFT of each channel at the band's bins only, then its inverse
    spectrum = by.conj().T @ white @ bx.conj()
    keep = (ky[:, np.newaxis] ** 2 + kx[np.newaxis, :] ** 2) <= LOW_BAND_RADIUS**2
    low = (by @ (spectrum * keep) @ bx.T).real / (h * w)
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
    schedule: NoiseSchedule,
    n_images: int,
    shape: tuple[int, int, int],
    seed: int,
    out_dir,
    timesteps: tuple[int, ...] | None = None,
    dtype: str = "f64",
) -> DatasetManifest:
    """Write a synthetic dataset whose correct selection answer is known.

    Image i is a fixed band-limited background (independent of t, keyed by
    ``stream_seed(seed, i, 0)``) plus a diagonal sinusoid at the profile's
    detail frequency with per-channel phases keyed by
    ``stream_seed(seed, i, t)`` and amplitude ``curve[t-1]``. Because the
    background is identical across timesteps, the per-image high-frequency
    ratio is strictly increasing in the detail amplitude; a detail
    frequency >= 3 keeps the sinusoid spectrally clear of the background
    band. Writes tensors plus ``manifest.json`` into ``out_dir``.

    The loop is image-major, so one background is held at a time; the
    written manifest still lists the outputs timestep-major. A degenerate
    background at image k is reported after images 0..k-1 are written,
    and no manifest is written then.
    """
    if profile.total_timesteps != schedule.total_timesteps:
        raise ProfileInvalid(
            f"amplitude curve covers {profile.total_timesteps} timesteps but the "
            f"schedule has {schedule.total_timesteps}"
        )
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
    grid = tuple(range(1, profile.total_timesteps + 1)) if timesteps is None else tuple(timesteps)
    if len(grid) < 1 or len(set(grid)) != len(grid) or list(grid) != sorted(grid):
        raise ProfileInvalid("timestep grid must be non-empty, unique, ascending")
    if grid[0] < 1 or grid[-1] > profile.total_timesteps:
        raise ProfileInvalid(f"timestep grid must stay within [1, {profile.total_timesteps}]")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    by_timestep: list[list[ManifestEntry]] = [[] for _ in grid]
    for i in range(n_images):
        low = _low_field((c, h, w), profile.base_low_freq_amplitude, stream_seed(seed, i, 0))
        for t, row in zip(grid, by_timestep):
            phases = 2.0 * np.pi * uniforms(c, stream_seed(seed, i, t))
            detail = _detail_pattern((c, h, w), profile.detail_frequency, phases)
            name = f"t{t:04d}_img{i:04d}.npy"
            write_array(low + profile.detail_amplitude_curve[t - 1] * detail, out / name, dtype)
            row.append(ManifestEntry(name, f"img{i:04d}", t, "oracle"))
        # one background at a time: this one goes before the next is built
        del low, detail
    entries = tuple(e for row in by_timestep for e in row)
    manifest = DatasetManifest(profile.total_timesteps, entries, False, out)
    save_manifest(manifest, out / "manifest.json")
    return manifest
