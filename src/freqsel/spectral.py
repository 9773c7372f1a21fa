"""Gaussian high-pass filtering and high-frequency energy ratios.

The high-frequency ratio (HFR) of a feature map is the fraction of its
energy that survives a Gaussian high-pass filter with gains
G = 1 - exp(-D^2 / (2 * cutoff^2)), D the distance in bins from DC. Every
job here works in one real basis, the orthonormal discrete Hartley
transform H_n[u, i] = cas(2 pi u i / n) / sqrt(n), cas = cos + sin
(Bracewell 1983), which is symmetric and its own inverse. G is even in
each frequency axis, so H diagonalises the filter: with Z = H_h @ X @ H_w
per channel, the high-pass part is H_h @ (G * Z) @ H_w and, by Parseval,

    hfr = sum((G * Z)^2) / sum(Z^2) = sum(G^2 * P) / sum(P)

with P = sum_c Z_c^2 the (h, w) power summed over the channels: one real
quadratic form with no complex spectrum and no subtraction, so it keeps
its relative accuracy at every cutoff. G is -expm1(-D^2 / (2 *
cutoff^2)) with its DC entry exactly 0, so 0 <= G^2 <= 1, G^2 * P <= P
elementwise, and the ratio of the monotonically rounded sums lies in
[0, 1]; it is invariant to rescaling the map.

H is cached read-only per size and G and G^2 per (height, width,
cutoff), after the rule of :func:`freqsel.defaults.checked_cutoff`. A map
is scored in chunks of whole channels, 512 KiB at most, by :func:`hfr`,
from memory or straight from its open tensor file, as
:func:`freqsel.average_hfr` hands it over, through one chunk loop. Each
chunk k is scaled by its own power of two 2^e_k, the one that puts its
peak into [0.5, 1), so its squares neither overflow nor underflow; its
power is summed over its channels into P_k, in channel order, and the
sums of P_k and G^2 * P_k, by numpy's pairwise ``sum``, are then
multiplied by 2^(2 (e_min - e_k)), e_min the exponent of the map's peak.
A power of two scales exactly in the normal range, so these partials are
those of the map scaled by 2^e_min as a whole. The exactly rounded
:func:`math.fsum` adds them, so a map's HFR has the same bits on every
rerun, from memory or from the file, and whichever thread scores it.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .defaults import DEFAULT_CUTOFF, checked_cutoff
from .errors import NonFiniteValue, ZeroEnergyFeature
from .reduction import max_abs
from .tensor_io import FeatureMap, FeatureMeta, _Payload

__all__ = [
    "DEFAULT_CUTOFF",
    "Decomposition",
    "hfr",
    "extract_high_freq",
    "decompose",
]


# hfr's chunk: at most 2^16 float64 elements (512 KiB) of whole channels.
# 2^15 holds half as much, but its twice as many numpy calls per map cost
# two scoring threads more CPU and wall time than the channel fold saves.
_CHUNK_ELEMENTS = 1 << 16
# Each thread keeps its hfr buffers for the next map of the same shape. A
# buffer freed after every map lets malloc trim the heap top, and then it
# is faulted in again for the next map (1280x16x16 maps: ~1700 minor
# faults per map; none with the buffers kept).
_scratch = threading.local()


@dataclass(frozen=True)
class Decomposition:
    """A feature map split into filtered parts; high + low == original."""

    high: FeatureMap
    low: FeatureMap


def _radius_sq(h: int, w: int) -> np.ndarray:
    """d(u)^2 + d(v)^2 per bin, with d(k) in [-(n // 2), (n - 1) // 2] the
    signed distance of bin k from DC."""
    dy, dx = ((np.arange(n) + n // 2) % n - n // 2 for n in (h, w))
    return np.add.outer(dy * dy, dx * dx)


@lru_cache(maxsize=128)
def _hartley(n: int) -> np.ndarray:
    """H[u, i] = cas(2 pi u i / n) / sqrt(n): real, symmetric, orthonormal
    and its own inverse. The phase u*i is reduced mod n in integers to keep
    the argument small."""
    k = np.arange(n)
    phase = 2.0 * np.pi * (np.outer(k, k) % n) / n
    h = (np.cos(phase) + np.sin(phase)) / math.sqrt(n)
    h.setflags(write=False)
    return h


@lru_cache(maxsize=128)
def _gains(h: int, w: int, cutoff: float) -> np.ndarray:
    """G[u, v] = -expm1(-(d(u)^2 + d(v)^2) / (2 * cutoff^2)). The DC gain is
    set to its exact 0: below cutoff ~1.5e-154, 2 * cutoff^2 underflows to 0
    and the formula gives 0/0 there, while every other gain goes to 1."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g = -np.expm1(-_radius_sq(h, w) / (2.0 * cutoff * cutoff))
    g[0, 0] = 0.0
    g.setflags(write=False)
    return g


@lru_cache(maxsize=128)
def _basis(h: int, w: int, cutoff: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(H_h, H_w, G, G^2) for a height and width, after the cutoff rule;
    cached, so no map squares G again."""
    gains = _gains(h, w, checked_cutoff(cutoff))
    gains_sq = np.square(gains)
    gains_sq.setflags(write=False)
    return _hartley(h), _hartley(w), gains, gains_sq


def _peak(values: np.ndarray, meta: FeatureMeta) -> float:
    """max |values| of the map `meta` names, after the NaN/Inf check."""
    peak = max_abs(values)
    if not math.isfinite(peak):
        raise NonFiniteValue(f"feature map {meta.image_id!r} (t={meta.timestep}) contains NaN or Inf")
    return peak


def _scale(values: np.ndarray, peak: float, out: np.ndarray) -> int:
    """Write `values` times 2^e into the float64 `out`, e the exponent that
    puts `peak`, their max |x|, into [0.5, 1) (0 for 0), and return e. The
    scaling is exact and keeps the transform and the squares from overflow
    and underflow over the float64 range. It runs in float64 whatever the
    dtype of `values`: on ``<f4`` values the float32 loop would flush what
    the scaling takes below the float32 range to 0."""
    exponent = -math.frexp(peak)[1]
    np.ldexp(values, exponent, out=out, dtype=np.float64)
    return exponent


def extract_high_freq(fmap: FeatureMap, cutoff: float) -> FeatureMap:
    """Filter a map through the high-pass gains: H_h @ (G * Z) @ H_w per
    channel, with Z = H_h @ X @ H_w, all on the map pre-scaled by the
    power of two that puts max |x| into [0.5, 1)."""
    hy, hx, gains, _ = _basis(fmap.height, fmap.width, cutoff)
    scaled = np.empty(fmap.values.shape)
    exponent = _scale(fmap.values, _peak(fmap.values, fmap.meta), scaled)
    z = hy @ scaled @ hx
    high = hy @ np.multiply(z, gains, out=z) @ hx
    return FeatureMap._owned(np.ldexp(high, -exponent, out=high), fmap.meta)


def hfr(fmap: FeatureMap | _Payload, cutoff: float = DEFAULT_CUTOFF) -> float:
    """High-frequency energy ratio of one map, channels pooled; see
    :func:`_chunked_hfr`. `fmap` may also be an open tensor file as
    ``tensor_io._map_payloads`` hands it over: its values are then read
    chunk by chunk into the scratch that scores them, so no map-sized
    array exists."""
    if isinstance(fmap, _Payload):
        return _chunked_hfr(lambda start, out, stage: fmap.read(out, stage), fmap.shape, cutoff, fmap.meta)
    values, meta = fmap.values, fmap.meta

    def read(start: int, out: np.ndarray, stage: np.ndarray) -> tuple[np.ndarray, float]:
        chunk = values[start : start + len(out)]
        return chunk, _peak(chunk, meta)

    return _chunked_hfr(read, values.shape, cutoff, meta)


def _chunked_hfr(read, shape: tuple[int, int, int], cutoff: float, meta: FeatureMeta) -> float:
    """The HFR of the (c, h, w) map whose channels ``read(start, out,
    stage)`` gives, in order, as (values, max |values|) in `out`'s shape;
    `stage` is a ``<f4`` array as large as `out` that the values may be
    read into.

    The map is walked in chunks of whole channels, as many as fit in
    _CHUNK_ELEMENTS (one if even one does not), through three buffers per
    thread that do not grow with the channel count: a chunk-sized one for
    the scaled channels, then Z in place; one of half as many channels,
    rounded up, that stages ``<f4`` values and then holds H_h @ X for each
    half of the chunk in turn; and one (h, w) array for the chunk's power
    P, summed over its channels in order by one ``einsum`` pass, then
    G^2 * P in place. At 2^16 elements that is 512 + 256 + 32 KiB for
    64x64 channels. Each chunk is scaled by its own power of two 2^e_k,
    the one that puts its peak into [0.5, 1), widened and scaled in one
    ``ldexp``; an all-zero chunk adds nothing. Its partial sums of P and
    G^2 * P are then brought to the scale of the map's peak, 2^e_min, by
    2^(2 (e_min - e_k)): scaling by a power of two is exact in the normal
    range, so these are the partials of a map scaled by 2^e_min as a
    whole. :func:`math.fsum` rounds the partials' totals exactly.
    """
    c, h, w = shape
    hy, hx, _, gains_sq = _basis(h, w, cutoff)
    step = max(1, _CHUNK_ELEMENTS // (h * w))
    k = min(step, c)
    half = (k + 1) // 2
    bufs = getattr(_scratch, "bufs", None)
    if bufs is None or bufs[0].shape != (k, h, w):
        bufs = _scratch.bufs = (np.empty((k, h, w)), np.empty((half, h, w)), np.empty((h, w)))
    chunk, spare, power = bufs
    stage = spare.reshape(-1).view("<f4")
    high, total, exponents = [], [], []
    for start in range(0, c, step):
        z = chunk[: min(step, c - start)]
        values, peak = read(start, z, stage)
        if peak == 0.0:
            continue
        exponent = _scale(values, peak, z)
        for j in range(0, len(z), half):
            part = z[j : j + half]
            np.matmul(np.matmul(hy, part, out=spare[: len(part)]), hx, out=part)
        np.einsum("chw,chw->hw", z, z, out=power)
        total.append(power.sum())
        high.append(np.multiply(power, gains_sq, out=power).sum())
        exponents.append(exponent)
    top = min(exponents, default=0)
    energy = math.fsum(math.ldexp(s, 2 * (top - e)) for s, e in zip(total, exponents))
    if energy == 0.0:
        raise ZeroEnergyFeature(
            f"zero-energy feature map (image {meta.image_id!r}, t={meta.timestep})"
        )
    return math.fsum(math.ldexp(s, 2 * (top - e)) for s, e in zip(high, exponents)) / energy


def decompose(fmap: FeatureMap, cutoff: float) -> Decomposition:
    """Split a map into high-pass and complementary low-pass parts.

    The low part is computed as original minus high, so the two parts
    recompose to the input up to one rounding per element. This costs four
    matrix products per channel, twice what :func:`hfr` needs.
    """
    high = extract_high_freq(fmap, cutoff)
    low = np.subtract(fmap.values, high.values)
    return Decomposition(high=high, low=FeatureMap._owned(low, fmap.meta))
