"""Gaussian high-pass filtering and high-frequency energy ratios.

The high-frequency ratio (HFR) of a feature map is the fraction of its
energy that survives a Gaussian high-pass filter with gains
G = 1 - exp(-D^2 / (2 * cutoff^2)), D the distance in bins from DC. Every
job here works in one real basis, the orthonormal discrete Hartley
transform H_n[u, i] = cas(2 pi u i / n) / sqrt(n), cas = cos + sin
(Bracewell 1983), which is symmetric and its own inverse. G is even in
each frequency axis, so H diagonalises the filter: with Z = H_h @ X @ H_w
per channel, the high-pass part is H_h @ (G * Z) @ H_w and, by Parseval,

    hfr = sum((G * Z)^2) / sum(Z^2) = sum(G^2 * P) / sum(P),  P = Z^2

one real quadratic form with no complex spectrum and no subtraction, so
it keeps its relative accuracy at every cutoff. G is -expm1(-D^2 / (2 *
cutoff^2)) with its DC entry exactly 0, so 0 <= G^2 <= 1, G^2 * P <= P
elementwise, and the ratio of the monotonically rounded sums lies in
[0, 1]; it is invariant to rescaling the map.

H is cached read-only per size and G per (height, width, cutoff), after
the rule of :func:`freqsel.defaults.checked_cutoff`. Each chunk of
channels is summed by numpy's pairwise ``sum`` and the chunks' partials by
the exactly rounded :func:`math.fsum`, so a map's HFR has the same bits on
every rerun and whichever thread scores it.
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
from .tensor_io import FeatureMap

__all__ = [
    "DEFAULT_CUTOFF",
    "Decomposition",
    "hfr",
    "extract_high_freq",
    "decompose",
]


# hfr's working set: 2^17 float64 elements (1 MiB) per buffer slot
_CHUNK_ELEMENTS = 1 << 17
# Each thread keeps its hfr buffer for the next map of the same shape. A
# buffer freed after every map lets malloc trim the heap top, and then both
# it and the reader's arrays are faulted in again for the next map
# (1280x16x16 maps: ~1700 minor faults per map; none with the buffer kept).
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


def _basis(fmap: FeatureMap, cutoff: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H_h, H_w, G) for the map's height and width, after the cutoff rule."""
    cutoff = checked_cutoff(cutoff)
    h, w = fmap.height, fmap.width
    return _hartley(h), _hartley(w), _gains(h, w, cutoff)


def _scale_exponent(fmap: FeatureMap) -> int:
    """The exponent that scales max |x| into [0.5, 1) (0 for an all-zero map),
    after the NaN/Inf check. The scaling is exact and keeps the transform
    and the squares from overflow and underflow over the float64 range."""
    peak = max_abs(fmap.values)
    if not math.isfinite(peak):
        raise NonFiniteValue(
            f"feature map {fmap.meta.image_id!r} (t={fmap.meta.timestep}) contains NaN or Inf"
        )
    return -math.frexp(peak)[1]


def extract_high_freq(fmap: FeatureMap, cutoff: float) -> FeatureMap:
    """Filter a map through the high-pass gains: H_h @ (G * Z) @ H_w per
    channel, with Z = H_h @ X @ H_w, all on the pre-scaled map."""
    hy, hx, gains = _basis(fmap, cutoff)
    exponent = _scale_exponent(fmap)
    z = hy @ np.ldexp(fmap.values, exponent) @ hx
    high = hy @ np.multiply(z, gains, out=z) @ hx
    return FeatureMap._owned(np.ldexp(high, -exponent, out=high), fmap.meta)


def hfr(fmap: FeatureMap, cutoff: float = DEFAULT_CUTOFF) -> float:
    """High-frequency energy ratio of one map, channels pooled.

    The pre-scaled map is walked in chunks of whole channels, as many as
    fit in _CHUNK_ELEMENTS (one if even one does not), through one buffer
    of two chunk-sized slots per thread, which does not grow with the
    channel count: the scaled channels, then Z, P and G^2 * P in place; and
    H_h @ X. Each chunk adds one partial sum of P and one of G^2 * P, and
    :func:`math.fsum` rounds the partials' totals exactly.
    """
    hy, hx, gains = _basis(fmap, cutoff)
    exponent = _scale_exponent(fmap)
    values = fmap.values
    c, h, w = values.shape
    step = max(1, _CHUNK_ELEMENTS // (h * w))
    shape = (2, min(step, c), h, w)
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.shape != shape:
        buf = _scratch.buf = np.empty(shape)
    gains_sq = gains * gains
    high, total = [], []
    for start in range(0, c, step):
        power, hyx = buf[:, : min(step, c - start)]
        np.ldexp(values[start : start + step], exponent, out=power)
        np.matmul(np.matmul(hy, power, out=hyx), hx, out=power)
        np.square(power, out=power)
        total.append(power.sum())
        high.append(np.multiply(power, gains_sq, out=power).sum())
    energy = math.fsum(total)
    if energy == 0.0:
        raise ZeroEnergyFeature(
            f"zero-energy feature map (image {fmap.meta.image_id!r}, t={fmap.meta.timestep})"
        )
    return math.fsum(high) / energy


def decompose(fmap: FeatureMap, cutoff: float) -> Decomposition:
    """Split a map into high-pass and complementary low-pass parts.

    The low part is computed as original minus high, so the two parts
    recompose to the input up to one rounding per element. This costs four
    matrix products per channel, twice what :func:`hfr` needs.
    """
    high = extract_high_freq(fmap, cutoff)
    low = np.subtract(fmap.values, high.values)
    return Decomposition(high=high, low=FeatureMap._owned(low, fmap.meta))
