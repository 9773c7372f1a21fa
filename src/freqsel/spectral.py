"""Gaussian high-pass filtering and high-frequency energy ratios.

The central quantity is the high-frequency ratio (HFR) of a feature map:
the fraction of its energy that survives a Gaussian high-pass filter. The
gain 1 - exp(-D^2 / (2 * cutoff^2)) is separable, 1 - e_y(u) * e_x(v)
with e(k) = exp(-d(k)^2 / (2 * cutoff^2)) and d(k) the signed centred bin
distance, so each channel X (H x W) filters to

    high = X - A @ X @ B

where A and B are the real symmetric circulant matrices whose DFT
eigenvalues are e_y and e_x. By Parseval the ratio is then

    hfr = sum(high^2) / sum(X^2)

one real quadratic form: no complex spectrum and no inverse transform.
Gains live in [0, 1) (the DC gain is exactly zero), so the ratio is
bounded to [0, 1) and invariant to rescaling the map.

The filtering functions take the cutoff itself, checked by
:func:`freqsel.defaults.checked_cutoff`. A and B are built once per
(size, cutoff) and cached read-only; the H x W gain grid is never formed.

Energies are accumulated with the fixed pairwise tree from
:mod:`freqsel.reduction`, so results do not depend on evaluation order.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .defaults import DEFAULT_CUTOFF, checked_cutoff
from .errors import NonFiniteValue, ZeroEnergyFeature
from .reduction import block_sums, max_abs, pairwise_sum
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


def _gaussian_eigenvalues(n: int, cutoff: float) -> np.ndarray:
    """e(k) = exp(-d(k)^2 / (2 * cutoff^2)) in DFT order, d the centred bin distance.

    The DC value is set to its exact 1: below cutoff ~1.5e-154, 2 * cutoff^2
    underflows to 0 and the formula would give 0/0 there, while every
    other bin correctly goes to exp(-inf) = 0.
    """
    d = (np.arange(n) + n // 2) % n - n // 2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        e = np.exp(-(d * d) / (2.0 * cutoff * cutoff))
    e[0] = 1.0
    return e


@lru_cache(maxsize=128)
def _lowpass_circulant(n: int, cutoff: float) -> np.ndarray:
    """M[i, j] = a[(i - j) mod n] with a = inverse DFT of the Gaussian eigenvalues.

    a[d] = (1/n) * sum_k e(k) cos(2 pi k d / n); the phase k*d is reduced
    mod n in integers to keep the cosine argument small. a is even in d,
    so indexing by the shorter circular distance makes M exactly symmetric.
    """
    k = np.arange(n)
    a = np.cos(2.0 * np.pi * (np.outer(k, k) % n) / n) @ _gaussian_eigenvalues(n, cutoff) / n
    lag = (k[:, np.newaxis] - k[np.newaxis, :]) % n
    m = a[np.minimum(lag, n - lag)]
    m.setflags(write=False)
    return m


def _non_finite(fmap: FeatureMap) -> NonFiniteValue:
    return NonFiniteValue(
        f"feature map {fmap.meta.image_id!r} (t={fmap.meta.timestep}) contains NaN or Inf"
    )


def _circulants(fmap: FeatureMap, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) for the map's height and width, after the cutoff rule: the
    low-pass is A @ X @ B per channel, always associated as (A @ X) @ B."""
    cutoff = checked_cutoff(cutoff)
    return _lowpass_circulant(fmap.height, cutoff), _lowpass_circulant(fmap.width, cutoff)


def extract_high_freq(fmap: FeatureMap, cutoff: float) -> FeatureMap:
    """Filter a map through the high-pass gains: X - A @ X @ B per channel."""
    a, b = _circulants(fmap, cutoff)
    if not math.isfinite(max_abs(fmap.values)):
        raise _non_finite(fmap)
    high = a @ fmap.values @ b
    np.subtract(fmap.values, high, out=high)
    return FeatureMap._owned(high, fmap.meta)


def hfr(fmap: FeatureMap, cutoff: float = DEFAULT_CUTOFF) -> float:
    """High-frequency energy ratio of one map, channels pooled.

    The map is first scaled by the power of two that brings max |x| into
    [0.5, 1). That scaling is exact, so in-range results keep their bits,
    and the squared energies can neither overflow nor underflow anywhere
    in the finite float64 range. A non-finite max |x| is the NaN/Inf
    check.

    The map is then walked in chunks of 2^j channels, the most that fit
    in _CHUNK_ELEMENTS (one channel if even that does not), through one
    chunk-sized buffer of three slots per thread: the scaled channels,
    A @ X (then the folds' scratch) and the high part; the difference and
    both squares are computed in place, so the scratch does not grow with
    the channel count. Each chunk starts on a multiple of 2^k, the largest
    power of two dividing the chunk size, so its squares fold to aligned
    2^k-block sums (:func:`freqsel.reduction.block_sums`) whose pairwise
    sum has the bits of one pairwise sum over the whole map.
    """
    a, b = _circulants(fmap, cutoff)
    values = fmap.values
    peak = max_abs(values)
    if not math.isfinite(peak):
        raise _non_finite(fmap)
    if peak == 0.0:
        raise ZeroEnergyFeature(
            f"zero-energy feature map (image {fmap.meta.image_id!r}, t={fmap.meta.timestep})"
        )
    exponent = -math.frexp(peak)[1]
    c, h, w = values.shape
    step = 1 << max(0, (_CHUNK_ELEMENTS // (h * w)).bit_length() - 1)  # 2^j channels
    stride = step * h * w
    # 2^k divides every chunk start; a map of one chunk folds to one sum
    block = stride & -stride if c > step else 1 << stride.bit_length()
    shape = (3, min(step, c), h, w)
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.shape != shape:
        buf = _scratch.buf = np.empty(shape)
    # block sums of the high part and of the whole; the last chunk may add a tail
    partials = np.empty((2, c * h * w // block + 1))
    n = 0
    for start in range(0, c, step):
        scaled, ax, high = buf[:, : min(step, c - start)]
        np.ldexp(values[start : start + step], exponent, out=scaled)
        np.matmul(np.matmul(a, scaled, out=ax), b, out=high)
        np.subtract(scaled, high, out=high)
        for row, part in zip(partials, (high, scaled)):
            sums = block_sums(np.square(part, out=part), block, ax)
            row[n : n + sums.size] = sums
        n += sums.size
    return pairwise_sum(partials[0, :n]) / pairwise_sum(partials[1, :n])


def decompose(fmap: FeatureMap, cutoff: float) -> Decomposition:
    """Split a map into high-pass and complementary low-pass parts.

    The low part is computed as original minus high, so the two parts
    recompose to the input up to one rounding per element.
    """
    high = extract_high_freq(fmap, cutoff)
    low = np.subtract(fmap.values, high.values)
    return Decomposition(high=high, low=FeatureMap._owned(low, fmap.meta))
