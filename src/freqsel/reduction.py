"""Deterministic pairwise (cascade) summation.

Plain left-to-right accumulation makes the rounding of a long sum depend on
chunk boundaries, which breaks bit-reproducibility as soon as work is split
across threads. The cascade tree used here is fixed by the input length
alone: adjacent elements are folded pairwise, an odd leftover rides along to
the next round. Any two runs over the same values therefore produce the
same bits, and the error bound grows like O(log n) instead of O(n).
"""
from __future__ import annotations

import numpy as np

__all__ = ["pairwise_sum"]


def pairwise_sum(values) -> float:
    """Sum `values` (any shape, flattened in C order) over a fixed pair tree."""
    a = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if a.size == 0:
        return 0.0
    while a.size > 1:
        m = a.size // 2
        folded = a[: 2 * m : 2] + a[1 : 2 * m : 2]
        if a.size % 2:
            folded = np.concatenate([folded, a[-1:]])
        a = folded
    return float(a[0])


def pow2_scale(values) -> tuple[np.ndarray, int]:
    """(scaled, exponent) with values == ldexp(scaled, exponent) and max |scaled| in
    [0.5, 1) (exponent 0 if all zero): squares of `scaled` neither overflow nor
    underflow, and the scaling is exact, so in-range results keep their bits."""
    a = np.asarray(values, dtype=np.float64)
    exponent = int(np.frexp(np.max(np.abs(a)))[1]) if a.size else 0
    return np.ldexp(a, -exponent), exponent
