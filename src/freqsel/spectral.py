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

Energies are accumulated with the fixed pairwise tree from
:mod:`freqsel.reduction`, so results do not depend on evaluation order.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimMismatch, NonFiniteValue, NonPositiveCutoff, ZeroEnergyFeature
from .reduction import pairwise_sum, pow2_scale
from .tensor_io import FeatureMap

__all__ = [
    "DEFAULT_CUTOFF",
    "HighPassMask",
    "Decomposition",
    "gaussian_highpass_mask",
    "energy",
    "hfr",
    "extract_high_freq",
    "decompose",
]

# published default for the Gaussian high-pass cutoff D0
DEFAULT_CUTOFF = 30.0


@dataclass(frozen=True)
class HighPassMask:
    """Gain grid for one (height, width, cutoff) combination.

    ``gains`` is stored centred (zero-frequency bin at (H//2, W//2)) and
    read-only. gain(u, v) = 1 - exp(-D^2 / (2 * cutoff^2)) with D the
    Euclidean distance from the centre bin, built as 1 - e_y(u) * e_x(v),
    so the unshifted grid satisfies g[u, v] = g[(H-u) % H, (W-v) % W]
    exactly and real inputs stay real after filtering.
    """

    height: int
    width: int
    cutoff: float
    gains: np.ndarray

    def unshifted(self) -> np.ndarray:
        """Gains in standard DFT layout (zero-frequency bin at [0, 0])."""
        return np.roll(self.gains, (-(self.height // 2), -(self.width // 2)), axis=(0, 1))


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
def _mask_cached(height: int, width: int, cutoff: float) -> HighPassMask:
    unshifted = 1.0 - np.outer(
        _gaussian_eigenvalues(height, cutoff), _gaussian_eigenvalues(width, cutoff)
    )
    gains = np.roll(unshifted, (height // 2, width // 2), axis=(0, 1))
    gains.setflags(write=False)
    return HighPassMask(height, width, cutoff, gains)


def gaussian_highpass_mask(height: int, width: int, cutoff: float = DEFAULT_CUTOFF) -> HighPassMask:
    """Build (or fetch from cache) the gain grid for one configuration."""
    if height < 1 or width < 1:
        raise DimMismatch(f"mask dims must be >= 1, got {height}x{width}")
    if not (np.isfinite(cutoff) and cutoff > 0.0):
        raise NonPositiveCutoff(f"cutoff must be finite and > 0, got {cutoff}")
    return _mask_cached(int(height), int(width), float(cutoff))


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


def _sum_squares(values: np.ndarray) -> float:
    return pairwise_sum(np.square(values))


def energy(fmap: FeatureMap) -> float:
    """Total energy sum(values^2), accumulated pairwise.

    The squares are taken after the exact power-of-two pre-scale that
    :func:`hfr` uses and the sum is scaled back, so no square overflows or
    underflows on the way; the result is inf only if the energy itself
    exceeds the float64 range (16 values of 1e160 have energy 1.6e321).
    """
    scaled, exponent = pow2_scale(fmap.values)
    with np.errstate(over="ignore"):
        return float(np.ldexp(_sum_squares(scaled), 2 * exponent))


def extract_high_freq(fmap: FeatureMap, mask: HighPassMask) -> FeatureMap:
    """Filter a map through the high-pass gains: X - A @ X @ B per channel."""
    if (mask.height, mask.width) != (fmap.height, fmap.width):
        raise DimMismatch(
            f"mask is {mask.height}x{mask.width} but map is {fmap.height}x{fmap.width}"
        )
    if not np.isfinite(fmap.values).all():
        raise NonFiniteValue(
            f"feature map {fmap.meta.image_id!r} (t={fmap.meta.timestep}) contains NaN or Inf"
        )
    a = _lowpass_circulant(mask.height, mask.cutoff)
    b = _lowpass_circulant(mask.width, mask.cutoff)
    return FeatureMap(fmap.values - a @ fmap.values @ b, fmap.meta)


def hfr(fmap: FeatureMap, cutoff: float = DEFAULT_CUTOFF) -> float:
    """High-frequency energy ratio of one map, channels pooled.

    The map is first scaled by the power of two that brings max |x| into
    [0.5, 1). That scaling is exact, so in-range results keep their bits,
    and the squared energies can neither overflow nor underflow anywhere
    in the finite float64 range.
    """
    mask = gaussian_highpass_mask(fmap.height, fmap.width, cutoff)
    scaled = FeatureMap(pow2_scale(fmap.values)[0], fmap.meta)
    high = extract_high_freq(scaled, mask)
    total = _sum_squares(scaled.values)
    if total == 0.0:
        raise ZeroEnergyFeature(
            f"zero-energy feature map (image {fmap.meta.image_id!r}, t={fmap.meta.timestep})"
        )
    return _sum_squares(high.values) / total


def decompose(fmap: FeatureMap, mask: HighPassMask) -> Decomposition:
    """Split a map into high-pass and complementary low-pass parts.

    The low part is computed as original minus high, so the two parts
    recompose to the input up to one rounding per element.
    """
    high = extract_high_freq(fmap, mask)
    low = FeatureMap(fmap.values - high.values, fmap.meta)
    return Decomposition(high=high, low=low)
