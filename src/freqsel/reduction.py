"""Deterministic pairwise (cascade) summation.

Plain left-to-right accumulation makes the rounding of a long sum depend on
chunk boundaries, which breaks bit-reproducibility as soon as work is split
across threads. The cascade tree used here is fixed by the input length
alone: adjacent elements are folded pairwise, an odd leftover rides along to
the next round. Any two runs over the same values therefore produce the
same bits, and the error bound grows like O(log n) instead of O(n).

The tree can be cut into aligned blocks. After round j, element i holds the
sum over [i * 2^j, min((i + 1) * 2^j, n)), so stopping after k rounds
(:func:`block_sums`) leaves the full-tree sums of the aligned 2^k-element
blocks followed by the tree sum of the tail, and folding those on gives
the same bits as folding the whole. A caller that produces its values in
pieces starting on multiples of 2^k can reduce each piece as it goes.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["pairwise_sum"]


def _fold(values, rounds: int, scratch: np.ndarray | None) -> np.ndarray:
    """The first `rounds` rounds of the pair tree over `values` (any shape,
    flattened in C order); `values` itself if `rounds` is 0.

    The rounds fold back and forth between the two parts of one scratch
    buffer (the first round's ceil(n/2) sums, then the second's), which is
    allocated here unless the caller lends a contiguous float64 `scratch`
    with at least as many elements as `values`; `values` itself is only
    read, never written. The scratch does not change the bits, and the
    result is a view into it.
    """
    src = np.asarray(values, dtype=np.float64).reshape(-1)
    n = src.size
    half = (n + 1) // 2 if n > 1 else 0  # the first round's sums
    need = half + ((half + 1) // 2 if half > 1 else 0)  # and the second's
    if scratch is None:
        scratch = np.empty(need)
    elif scratch.size < need:
        raise ValueError(f"scratch has {scratch.size} elements, a sum of {n} needs {need}")
    scratch = scratch.reshape(-1)
    parts = (scratch[:half], scratch[half:])
    fold = 0
    while n > 1 and rounds > 0:
        m, odd = divmod(n, 2)
        dst = parts[fold]
        np.add(src[: 2 * m : 2], src[1 : 2 * m : 2], out=dst[:m])
        if odd:
            dst[m] = src[n - 1]
        src, n, fold, rounds = dst, m + odd, 1 - fold, rounds - 1
    return src[:n]


def pairwise_sum(values, scratch: np.ndarray | None = None) -> float:
    """Sum `values` (any shape, flattened in C order) over a fixed pair tree.

    A lent float64 `scratch` of at least as many elements as `values` saves
    the fold its allocation; it does not change the bits.
    """
    src = _fold(values, np.size(values), scratch)
    return float(src[0]) if src.size else 0.0


def block_sums(values, block: int, scratch: np.ndarray | None = None) -> np.ndarray:
    """The pair-tree sums of the aligned `block`-element runs of `values`
    (`block` a power of two), then the pair-tree sum of the ragged tail if
    there is one, so that ``pairwise_sum(block_sums(x, block)) ==
    pairwise_sum(x)`` bit for bit.

    The result is a view into `scratch` (or into `values` when `block` is
    1); `scratch` is lent as for :func:`pairwise_sum`.
    """
    return _fold(values, block.bit_length() - 1, scratch)


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
