import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from freqsel import pairwise_sum
from freqsel.reduction import block_sums

from util import pairwise_sum_per_level

finite = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)


def test_empty_and_singleton():
    assert pairwise_sum([]) == 0.0
    assert pairwise_sum([3.5]) == 3.5


@given(st.lists(finite, min_size=1, max_size=400))
def test_matches_fsum_closely(values):
    exact = math.fsum(values)
    got = pairwise_sum(values)
    scale = max(1.0, sum(abs(v) for v in values))
    assert abs(got - exact) <= 1e-9 * scale


@given(st.lists(finite, min_size=2, max_size=100))
def test_independent_of_container_and_shape(values):
    arr = np.asarray(values)
    assert pairwise_sum(values) == pairwise_sum(arr)
    # any reshape flattens back to the same C-order sequence
    if arr.size % 2 == 0:
        assert pairwise_sum(arr.reshape(2, -1)) == pairwise_sum(arr)


def test_fixed_tree_is_not_left_to_right():
    # values chosen so naive accumulation and the pair tree round differently:
    # the pair tree keeps the (1+1) pair intact, left-to-right loses everything
    values = [1e16, 1.0, 1.0, 1.0, 1.0, -1e16]
    naive = 0.0
    for v in values:
        naive += v
    assert naive == 0.0
    assert pairwise_sum(values) == 2.0
    assert math.fsum(values) == 4.0


FOLD_SIZES = [0, 1, 2, 3] + [2**k + d for k in range(2, 13) for d in (-1, 0, 1)] + [320 * 64 * 64]


@pytest.mark.parametrize("n", FOLD_SIZES)
def test_bits_match_the_allocate_per_level_fold(n):
    rng = np.random.default_rng(n)
    # magnitudes spread over 16 decades, so a different tree rounds differently
    values = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, size=n)
    values.setflags(write=False)
    before = values.copy()
    want = pairwise_sum_per_level(values)
    assert pairwise_sum(values) == want
    # a lent scratch, here larger than needed, does not change the bits
    assert pairwise_sum(values, np.full(n + 5, np.nan)) == want
    # the read-only input is accepted and never written
    assert np.array_equal(values, before)


def test_strided_and_multidimensional_inputs_fold_in_c_order():
    grid = np.random.default_rng(7).normal(size=(5, 7, 9))
    assert pairwise_sum(grid) == pairwise_sum_per_level(grid)
    assert pairwise_sum(grid[:, ::2, 1:]) == pairwise_sum_per_level(grid[:, ::2, 1:])
    assert pairwise_sum(grid.T) == pairwise_sum_per_level(grid.T)


def test_scratch_too_small_is_rejected():
    values = np.ones(9)  # rounds of 5 and 3 sums need 8 elements
    assert pairwise_sum(values, np.empty(8)) == 9.0
    with pytest.raises(ValueError, match="needs 8"):
        pairwise_sum(values, np.empty(7))


@given(st.integers(0, 5000), st.integers(0, 13), st.integers(0, 2**32 - 1))
def test_block_sums_fold_on_to_the_same_bits(n, k, seed):
    rng = np.random.default_rng(seed)
    # magnitudes spread over 16 decades, so a different tree rounds differently
    values = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, size=n)
    sums = block_sums(values, 2**k)
    # each aligned block's full tree, then the ragged tail's own tree
    assert sums.tolist() == [pairwise_sum(values[i : i + 2**k]) for i in range(0, n, 2**k)]
    assert pairwise_sum(sums) == pairwise_sum(values)
