"""Range helpers for the power-of-two pre-scale.

Sums need no helper here: a contiguous array is summed by numpy's own
pairwise ``sum``, whose tree is fixed by the length on one numpy build, and
a list of partials or a short series by :func:`math.fsum`, which is exactly
rounded (Shewchuk 1997) and so does not depend on the order of its terms.
"""
from __future__ import annotations

import math

import numpy as np


def max_abs(values: np.ndarray) -> float:
    """max |values| without an |values| temporary: NaN if any value is NaN,
    inf if any is infinite, 0.0 for an empty array."""
    return float(max(values.max(), -values.min())) if values.size else 0.0


def pow2_scale(values) -> tuple[np.ndarray, int]:
    """(scaled, exponent) with values == ldexp(scaled, exponent) and max |scaled| in
    [0.5, 1) (exponent 0 if all zero): squares of `scaled` neither overflow nor
    underflow, and the scaling is exact, so in-range results keep their bits.
    `scaled` is always a new array."""
    a = np.asarray(values, dtype=np.float64)
    exponent = math.frexp(max_abs(a))[1]
    return np.ldexp(a, -exponent), exponent
