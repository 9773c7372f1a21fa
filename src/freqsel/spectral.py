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
cutoff), after the rule of :func:`freqsel.defaults.checked_cutoff`. The
HFR and the filter walk a map in chunks of whole channels, 512 KiB at
most, as ``tensor_io._channel_chunks`` yields them from memory or, for
:func:`hfr`, straight from an open tensor file, through per-thread
scratch that does not grow with the channel count. Each chunk k is
scaled by its own power of two 2^e_k, the one that puts its peak into
[0.5, 1), so its squares neither overflow nor underflow. The filter
unscales each chunk's high part into its output; the HFR sums each
chunk's power over its channels into P_k, in channel order, and
multiplies the sums of P_k and G^2 * P_k, by numpy's pairwise ``sum``,
by 2^(2 (e_min - e_k)), e_min the exponent of the map's peak. A power of
two scales exactly in the normal range, so both give the bits of the map
scaled as a whole. The exactly rounded :func:`math.fsum` adds the
partials, so a map's HFR has the same bits on every rerun, from memory
or from the file, and whichever thread scores it.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .defaults import DEFAULT_CUTOFF, checked_cutoff
from .errors import ZeroEnergyFeature
from .tensor_io import _PIECE, FeatureMap, _Payload, _channel_chunks

__all__ = [
    "DEFAULT_CUTOFF",
    "Decomposition",
    "hfr",
    "extract_high_freq",
    "decompose",
]


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


def _buffers(shape: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """This thread's scratch for maps of `shape`, kept for the next map of
    that shape: a chunk of as many whole channels as fit in ``_PIECE``
    elements (one if even one does not) for the scaled channels and then
    Z; half as many, rounded up, to stage ``<f4`` values and hold H_h @ X;
    and one (h, w) array: 512 + 256 + 32 KiB for 64x64 channels."""
    c, h, w = shape
    k = min(c, max(1, _PIECE // (h * w)))
    bufs = getattr(_scratch, "bufs", None)
    if bufs is None or bufs[0].shape != (k, h, w):
        bufs = _scratch.bufs = (np.empty((k, h, w)), np.empty(((k + 1) // 2, h, w)), np.empty((h, w)))
    return bufs


def _transform(hy: np.ndarray, hx: np.ndarray, z: np.ndarray, spare: np.ndarray, out: np.ndarray) -> None:
    """out = H_h @ z @ H_w per channel, through `spare` as many channels at
    a time as it holds; `out` may be `z`."""
    for j in range(0, len(z), len(spare)):
        part = z[j : j + len(spare)]
        np.matmul(np.matmul(hy, part, out=spare[: len(part)]), hx, out=out[j : j + len(part)])


def extract_high_freq(fmap: FeatureMap, cutoff: float) -> FeatureMap:
    """Filter a map through the high-pass gains: H_h @ (G * Z) @ H_w per
    channel, with Z = H_h @ X @ H_w, on each chunk scaled as :func:`hfr`
    scales it, then unscaled into the one output array."""
    hy, hx, gains, _ = _basis(fmap.height, fmap.width, cutoff)
    chunk, spare, _ = _buffers(fmap.shape)
    high = np.empty(fmap.shape)
    for start, values, peak in _channel_chunks(fmap, chunk, None):
        z, part = chunk[: len(values)], high[start : start + len(values)]
        exponent = _scale(values, peak, z)
        _transform(hy, hx, z, spare, z)
        _transform(hy, hx, np.multiply(z, gains, out=z), spare, part)
        np.ldexp(part, -exponent, out=part)
    return FeatureMap._owned(high, fmap.meta)


def hfr(fmap: FeatureMap | _Payload, cutoff: float = DEFAULT_CUTOFF) -> float:
    """High-frequency energy ratio of one map, channels pooled; see the
    module docstring. `fmap` may also be an open tensor file as
    ``tensor_io._map_payloads`` hands it over: its values are then read
    chunk by chunk into the scratch that scores them, so no map-sized
    array exists. Each chunk is transformed in place, its power folded
    over its channels by one ``einsum`` pass into an (h, w) buffer, then
    G^2 * P in place; an all-zero chunk adds nothing."""
    _, h, w = fmap.shape
    hy, hx, _, gains_sq = _basis(h, w, cutoff)
    chunk, spare, power = _buffers(fmap.shape)
    high, total, exponents = [], [], []
    for _, values, peak in _channel_chunks(fmap, chunk, spare.reshape(-1).view("<f4")):
        if peak == 0.0:
            continue
        z = chunk[: len(values)]
        exponents.append(_scale(values, peak, z))
        _transform(hy, hx, z, spare, z)
        np.einsum("chw,chw->hw", z, z, out=power)
        total.append(power.sum())
        high.append(np.multiply(power, gains_sq, out=power).sum())
    top = min(exponents, default=0)
    energy = math.fsum(math.ldexp(s, 2 * (top - e)) for s, e in zip(total, exponents))
    if energy == 0.0:
        raise ZeroEnergyFeature(f"zero-energy feature map (image {fmap.meta.image_id!r}, t={fmap.meta.timestep})")
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
