import json
import math
import sys

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from freqsel import (
    FeatureMap,
    FeatureMeta,
    LabeledEmbeddingSet,
    correlate,
    fisher_score,
    load_manifest,
    pool_tokens,
    read_series_csv,
    read_tensor,
)
from freqsel.cli import main
from freqsel.errors import (
    ConstantSeries,
    DegenerateWithinScatter,
    EmptyInput,
    InvalidEmbeddingSet,
    NonFiniteValue,
    SeriesInvalid,
)

from freqsel.tensor_io import _map_payloads

from util import cli_peak_rss_kb, fisher_scatter_oracle, make_map, map_loaded, write_dataset


# --- pooling ------------------------------------------------------------------

def test_pool_tokens_feature_map():
    values = np.stack([np.full((2, 3), 1.0), np.arange(6, dtype=float).reshape(2, 3)])
    pooled = pool_tokens(make_map(values))
    assert pooled.shape == (2,)
    assert pooled[0] == 1.0
    assert pooled[1] == 2.5


def test_pool_tokens_matrix_and_empty():
    mat = np.array([[1.0, 10.0], [3.0, 30.0]])
    assert np.array_equal(pool_tokens(mat), [2.0, 20.0])
    with pytest.raises(EmptyInput):
        pool_tokens(np.zeros((0, 4)))
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(NonFiniteValue, match="contain NaN or Inf"):
            pool_tokens(np.array([[1.0, 2.0], [2.0, bad]]))


def test_pool_tokens_within_1e_15_of_the_exactly_rounded_mean():
    # 2^14 tokens away from zero: summing one token at a time down the
    # strided token axis is off by ~1e-14 here
    tokens = np.random.default_rng(5).normal(size=(1 << 14, 6)) + 3.0
    want = np.array([math.fsum(column) for column in tokens.T]) / tokens.shape[0]
    for pooled in (pool_tokens(tokens), pool_tokens(make_map(tokens.T.reshape(6, 128, 128)))):
        assert np.all(np.abs(pooled - want) <= 1e-15 * want)


def test_pool_tokens_finite_near_the_float64_maximum():
    pooled = pool_tokens(make_map(np.full((2, 4, 4), 1.5e308)))
    assert np.array_equal(pooled, [1.5e308, 1.5e308])


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("shape", [(37, 64, 64), (3, 300, 300), (2, 5, 7)], ids=["chunks", "row_over_piece", "one_chunk"])
def test_pool_tokens_from_the_file_has_the_bits_of_the_map(tmp_path, shape, dtype):
    # 37 channels of 64x64 are read in chunks of 16, 16 and 5; a 300x300
    # channel is more than one piece, and is read one at a time
    # near the top of each dtype's range: the f64 rows would overflow an unscaled sum
    values = np.random.default_rng(3).normal(size=shape) * (1e35 if dtype == "f32" else 1e305)
    fmap = FeatureMap(values, FeatureMeta("a", 1, "", dtype))
    manifest = load_manifest(write_dataset(tmp_path, [fmap], 1))
    ((_, streamed),) = _map_payloads(manifest, pool_tokens)
    (whole,) = map_loaded(manifest, pool_tokens)
    assert streamed.tobytes() == whole[1].tobytes()
    assert streamed.tobytes() == pool_tokens(read_tensor(manifest.resolve(manifest.entries[0]))).tobytes()


# --- Fisher score -----------------------------------------------------------------

def test_fisher_worked_example_is_exact():
    # classes {0, 2} and {10, 12}: within 4, between 100, ratio 25
    data = LabeledEmbeddingSet(np.array([[0.0], [2.0], [10.0], [12.0]]), np.array([0, 0, 1, 1]))
    result = fisher_score(data)
    assert result.trace_within == 4.0
    assert result.trace_between == 100.0
    assert result.score == 25.0


def rand_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    d = int(rng.integers(1, 8))
    k = int(rng.integers(2, 5))
    labels = rng.integers(0, k, size=n)
    # two classes, one of them with two rows: all-singleton classes have no
    # within-class scatter (test_fisher_degenerate_within_scatter covers that)
    while np.unique(labels).size < 2 or np.bincount(labels).max() < 2:
        labels = rng.integers(0, k, size=n)
    return rng.normal(size=(n, d)) * rng.uniform(0.1, 10), labels


@pytest.mark.parametrize("seed", range(12))
def test_fisher_matches_scatter_matrix_oracle(seed):
    emb, labels = rand_instance(seed)
    got = fisher_score(LabeledEmbeddingSet(emb, labels))
    want_b, want_w = fisher_scatter_oracle(emb, labels)
    assert got.trace_between == pytest.approx(want_b, rel=1e-12)
    assert got.trace_within == pytest.approx(want_w, rel=1e-12)
    assert got.score == pytest.approx(want_b / want_w, rel=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_fisher_total_scatter_identity(seed):
    emb, labels = rand_instance(100 + seed)
    got = fisher_score(LabeledEmbeddingSet(emb, labels))
    mu = emb.mean(axis=0)
    total = float(np.sum((emb - mu) ** 2))
    assert got.trace_between + got.trace_within == pytest.approx(total, rel=1e-9)


def test_fisher_invariant_under_sample_order():
    emb, labels = rand_instance(7)
    perm = np.random.default_rng(1).permutation(len(labels))
    a = fisher_score(LabeledEmbeddingSet(emb, labels))
    b = fisher_score(LabeledEmbeddingSet(emb[perm], labels[perm]))
    assert a.score == pytest.approx(b.score, rel=1e-12)


# power-of-two scales keep the inputs exact, so the score is exactly 25; the
# decimal scales round the inputs, whose exact score is then 25 to within 6e-16
@pytest.mark.parametrize("scale, rel", [(2.0**531, 0.0), (2.0**-565, 0.0), (1e160, 1e-15), (1e-170, 1e-15)])
def test_fisher_worked_example_over_float64_range(scale, rel):
    emb = np.array([[0.0], [2.0], [10.0], [12.0]]) * scale
    result = fisher_score(LabeledEmbeddingSet(emb, np.array([0, 0, 1, 1])))
    assert result.score == pytest.approx(25.0, rel=rel, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    exponent=st.integers(min_value=-300, max_value=300),
)
def test_fisher_finite_and_scale_free_over_float64_range(seed, exponent):
    emb, labels = rand_instance(seed)
    base = fisher_score(LabeledEmbeddingSet(emb, labels)).score
    scaled = fisher_score(LabeledEmbeddingSet(emb * 10.0**exponent, labels)).score
    assert scaled == pytest.approx(base, rel=1e-12)


def test_fisher_cli_on_maps_near_the_float64_maximum(tmp_path):
    # 64 tokens of about 2^1020 sum past the float64 maximum unless pre-scaled;
    # a power-of-two scale is exact, so the score keeps its bits
    rng = np.random.default_rng(3)
    base = [rng.uniform(1.0, 2.0, size=(3, 8, 8)) + 0.5 * (i % 2) for i in range(4)]
    scores = []
    for scale in (1.0, 2.0**1020):
        maps = [make_map(v * scale, f"img{i}", 1) for i, v in enumerate(base)]
        manifest = write_dataset(tmp_path / f"x{scale:g}", maps, 1, labels={i: i % 2 for i in range(4)})
        out = tmp_path / f"fisher{scale:g}.json"
        assert main(["fisher", "--manifest", str(manifest), "--out", str(out)]) == 0
        scores.append(json.loads(out.read_text())["per_timestep"][0]["score"])
    assert math.isfinite(scores[0]) and scores[0] > 0
    assert scores[1] == scores[0]


def test_fisher_degenerate_within_scatter():
    data = LabeledEmbeddingSet(np.array([[1.0], [1.0], [5.0], [5.0]]), np.array([0, 0, 1, 1]))
    with pytest.raises(DegenerateWithinScatter):
        fisher_score(data)


def test_embedding_set_validation():
    ok = np.zeros((4, 2))
    with pytest.raises(InvalidEmbeddingSet):
        LabeledEmbeddingSet(np.zeros((4, 2, 2)), np.zeros(4, dtype=int))
    with pytest.raises(InvalidEmbeddingSet):
        LabeledEmbeddingSet(ok, np.zeros(3, dtype=int))
    with pytest.raises(InvalidEmbeddingSet):
        LabeledEmbeddingSet(np.zeros((1, 2)), np.zeros(1, dtype=int))
    with pytest.raises(InvalidEmbeddingSet):
        LabeledEmbeddingSet(ok, np.zeros(4, dtype=int))  # single class
    with pytest.raises(InvalidEmbeddingSet):
        LabeledEmbeddingSet(ok, np.array([0.5, 1.0, 0.0, 1.0]))  # float labels
    bad = ok.copy()
    bad[0, 0] = np.inf
    with pytest.raises(InvalidEmbeddingSet):
        LabeledEmbeddingSet(bad, np.array([0, 0, 1, 1]))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_fisher_peak_rss_does_not_grow_with_the_map_count(tmp_path):
    # four maps is the fewest that score: two per class, so that the
    # within-class scatter is not zero
    shape = (128, 64, 64)
    map_kb = np.prod(shape) * 8 / 1024  # one map as float64

    def peak_kb(n):
        maps = (make_map(np.random.default_rng(i).normal(size=shape), f"img{i}", 1) for i in range(n))
        manifest = write_dataset(tmp_path / f"maps{n}", maps, 1, labels={i: i % 2 for i in range(n)})
        return cli_peak_rss_kb("fisher", "--manifest", manifest, "--out", tmp_path / f"fisher{n}.json")

    small, large = peak_kb(4), peak_kb(16)
    assert large - small < 2 * map_kb, (small, large)


# --- correlations -------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(10))
def test_pearson_spearman_match_scipy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    xs = rng.normal(size=n)
    ys = 0.5 * xs + rng.normal(size=n)
    result = correlate(xs, ys)
    assert result.pearson == pytest.approx(scipy.stats.pearsonr(xs, ys).statistic, abs=1e-12)
    assert result.spearman == pytest.approx(scipy.stats.spearmanr(xs, ys).statistic, abs=1e-12)


def test_spearman_with_ties_matches_scipy():
    xs = np.array([1.0, 2.0, 2.0, 2.0, 3.0, 4.0, 4.0])
    ys = np.array([5.0, 5.0, 3.0, 4.0, 4.0, 2.0, 1.0])
    assert correlate(xs, ys).spearman == pytest.approx(scipy.stats.spearmanr(xs, ys).statistic, abs=1e-12)
    # 0.0 and -0.0 are one tie group
    zs = np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0, 1.0])
    assert correlate(zs, ys).spearman == pytest.approx(scipy.stats.spearmanr(zs, ys).statistic, abs=1e-12)


def test_perfect_monotone_relations():
    xs = np.array([1.0, 2.0, 5.0, 9.0])
    assert correlate(xs, xs**3).spearman == 1.0
    assert correlate(xs, -(xs**3)).spearman == -1.0
    assert correlate(xs, 2.0 * xs + 1.0).pearson == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_spearman_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=12)
    ys = rng.normal(size=12)
    base = correlate(xs, ys).spearman
    assert correlate(np.exp(xs), ys).spearman == pytest.approx(base, abs=1e-12)
    assert correlate(xs * 1000.0 + 5.0, ys).spearman == pytest.approx(base, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_correlations_bounded(seed):
    rng = np.random.default_rng(seed)
    result = correlate(rng.normal(size=9), rng.normal(size=9))
    assert -1.0 <= result.pearson <= 1.0
    assert -1.0 <= result.spearman <= 1.0


def test_pearson_exact_at_extreme_scales():
    assert correlate([1e200, 2e200, 3e200], [1.0, 2.0, 3.0]).pearson == 1.0
    assert correlate([1e-200, 2e-200, 3e-200], [3.0, 2.0, 1.0]).pearson == -1.0


def test_pearson_of_a_series_spread_over_one_ulp():
    # the mean 1 + ulp/3 rounds to 1.0: centred once, the series would be
    # (0, 0, ulp) and r = 0.7071; its deviations are (-1, -1, 2) * ulp/3
    r = correlate([1.0, 1.0, 1.0 + 2**-52], [0.0, 1.0, 2.0]).pearson
    assert r == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    exponent=st.integers(min_value=-300, max_value=300),
)
def test_correlations_scale_free_over_float64_range(seed, exponent):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=11)
    ys = 0.5 * xs + rng.normal(size=11)
    # each series lives at its own scale
    big, small = xs * 10.0**exponent, ys * 10.0**-exponent
    scaled, base = correlate(big, small), correlate(xs, ys)
    assert scaled.pearson == pytest.approx(base.pearson, abs=1e-12)
    assert scaled.spearman == pytest.approx(base.spearman, abs=1e-12)


def test_constant_series_rejected():
    with pytest.raises(ConstantSeries):
        correlate([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ConstantSeries):
        correlate([1.0, 2.0, 3.0], [7.0, 7.0, 7.0])


@pytest.mark.parametrize("constant", [[0.1] * 3, [0.7] * 3, [0.3] * 7])
def test_constant_series_with_an_inexact_mean_rejected(constant):
    # the mean of these rounds off by an ulp, so centring leaves nonzero values
    ramp = [float(i) for i in range(len(constant))]
    for xs, ys in ((constant, ramp), (ramp, constant)):
        with pytest.raises(ConstantSeries):
            correlate(xs, ys)


def test_series_shape_validation():
    with pytest.raises(SeriesInvalid):
        correlate([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(SeriesInvalid):
        correlate([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(EmptyInput):
        correlate([], [])
    with pytest.raises(SeriesInvalid):
        correlate([1.0, np.nan, 2.0], [1.0, 2.0, 3.0])


# --- series CSV ------------------------------------------------------------------------

def test_series_csv_roundtrip(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("t,value\n1,0.5\n50,0.25\n100,0.125\n")
    ts, vs = read_series_csv(path)
    assert ts == (1, 50, 100)
    assert vs == (0.5, 0.25, 0.125)


@pytest.mark.parametrize(
    "content",
    [
        "value,t\n1,0.5\n",
        "t,value\n1,0.5\n1,0.6\n",
        "t,value\n2,0.5\n1,0.6\n",
        "t,value\n1,abc\n",
        "t,value\n1,0.5,4\n",
        "t,value\n",
        "t,value\n1,inf\n",
    ],
    ids=["bad_header", "duplicate_t", "decreasing_t", "not_numeric", "extra_field", "no_rows", "inf_value"],
)
def test_series_csv_rejects_malformed(tmp_path, content):
    path = tmp_path / "s.csv"
    path.write_text(content)
    with pytest.raises(SeriesInvalid):
        read_series_csv(path)
