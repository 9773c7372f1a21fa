import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from freqsel import pairwise_sum

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
