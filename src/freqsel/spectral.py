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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .defaults import DEFAULT_CUTOFF, checked_cutoff
from .errors import NonFiniteValue, ZeroEnergyFeature
from .reduction import max_abs, pairwise_sum, pow2_scale
from .tensor_io import FeatureMap

__all__ = [
    "DEFAULT_CUTOFF",
    "Decomposition",
    "energy",
    "hfr",
    "extract_high_freq",
    "decompose",
]


@dataclass(frozen=True)
class Decomposition:
    """A feature map split into filtered parts; high + low == original."""

    high: FeatureMap
    low: FeatureMap


def _gaussian_eigenvalues(n: int, cutoff: float) -> np.ndarray:
    """e(k) = exp(-d(k)^2 / (2 * cutoff^2)) in DFT order, d the centred bin distance."""
    d = (np.arange(n) + n // 2) % n - n // 2
    return np.exp(-(d * d) / (2.0 * cutoff * cutoff))


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


def _sum_squares_in_place(values: np.ndarray, scratch: np.ndarray | None = None) -> float:
    """sum(values^2), accumulated pairwise; `values` is overwritten by its squares."""
    return pairwise_sum(np.square(values, out=values), scratch)


def energy(fmap: FeatureMap) -> float:
    """Total energy sum(values^2), accumulated pairwise.

    The squares are taken after the exact power-of-two pre-scale that
    :func:`hfr` uses and the sum is scaled back, so no square overflows or
    underflows on the way; the result is inf only if the energy itself
    exceeds the float64 range (16 values of 1e160 have energy 1.6e321).
    """
    scaled, exponent = pow2_scale(fmap.values)
    with np.errstate(over="ignore"):
        return float(np.ldexp(_sum_squares_in_place(scaled), 2 * exponent))


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

    All map-sized work happens in one buffer allocated per call, of three
    slots: the scaled copy, A @ X (then the sums' scratch) and the high
    part; the difference and both squares are computed in place. One
    large block, rather than a fresh array per step, is what the allocator
    can hand out again for the next map without new zeroed pages.
    """
    a, b = _circulants(fmap, cutoff)
    peak = max_abs(fmap.values)
    if not math.isfinite(peak):
        raise _non_finite(fmap)
    if peak == 0.0:
        raise ZeroEnergyFeature(
            f"zero-energy feature map (image {fmap.meta.image_id!r}, t={fmap.meta.timestep})"
        )
    scaled, ax, high = np.empty((3,) + fmap.values.shape)
    np.ldexp(fmap.values, -math.frexp(peak)[1], out=scaled)
    np.matmul(np.matmul(a, scaled, out=ax), b, out=high)
    np.subtract(scaled, high, out=high)
    total = _sum_squares_in_place(scaled, ax)
    return _sum_squares_in_place(high, ax) / total


def decompose(fmap: FeatureMap, cutoff: float) -> Decomposition:
    """Split a map into high-pass and complementary low-pass parts.

    The low part is computed as original minus high, so the two parts
    recompose to the input up to one rounding per element.
    """
    high = extract_high_freq(fmap, cutoff)
    low = np.subtract(fmap.values, high.values)
    return Decomposition(high=high, low=FeatureMap._owned(low, fmap.meta))
