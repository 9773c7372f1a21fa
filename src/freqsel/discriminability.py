"""Label-based separability scores and rank correlations.

The Fisher score of a labeled embedding set is computed in trace form,

    J = tr(S_b) / tr(S_w)
    tr(S_w) = sum_k sum_{x in class k} ||x - mu_k||^2
    tr(S_b) = sum_k n_k ||mu_k - mu||^2,

which never materialises a d x d scatter matrix and therefore scales to
wide embeddings. The traces satisfy tr(S_b) + tr(S_w) = total scatter
around the global mean. Each class block is summed by numpy's pairwise
``sum`` and the per-class parts by the exactly rounded :func:`math.fsum`,
so the result is independent of class iteration order. The embeddings
of maps are their channel means, pooled by :func:`pool_tokens` as
``tensor_io._channel_chunks`` walks each map, from memory or its file.

Correlations come in both flavours: Pearson on raw values and Spearman as
Pearson on average-tie ranks, ties grouped by :func:`numpy.unique` (so
``0.0`` and ``-0.0`` tie).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConstantSeries,
    DegenerateWithinScatter,
    EmptyInput,
    InvalidEmbeddingSet,
    SeriesInvalid,
)
from .fileio import read_csv
from .reduction import pow2_scale
from .spectral import _buffers
from .tensor_io import FeatureMap, _Payload, _channel_chunks

__all__ = [
    "LabeledEmbeddingSet",
    "FisherResult",
    "Correlation",
    "pool_tokens",
    "fisher_score",
    "correlate",
    "read_series_csv",
]

_SERIES_HEADER = ("t", "value")


@dataclass(frozen=True)
class LabeledEmbeddingSet:
    """(N, d) float64 embeddings with one integer label per row."""

    embeddings: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        emb = np.array(self.embeddings, dtype=np.float64, order="C", copy=True)
        lab = np.asarray(self.labels)
        if emb.ndim != 2:
            raise InvalidEmbeddingSet(f"embeddings must be (N, d), got shape {emb.shape}")
        if lab.ndim != 1 or lab.shape[0] != emb.shape[0]:
            raise InvalidEmbeddingSet(
                f"need one label per row: {emb.shape[0]} rows, {lab.shape} labels"
            )
        if emb.shape[0] < 2:
            raise InvalidEmbeddingSet("need at least two samples")
        if not np.isfinite(emb).all():
            raise InvalidEmbeddingSet("embeddings contain NaN or Inf")
        if not np.issubdtype(lab.dtype, np.integer):
            raise InvalidEmbeddingSet(f"labels must be integers, got dtype {lab.dtype}")
        lab = lab.astype(np.int64, copy=True)
        if np.unique(lab).size < 2:
            raise InvalidEmbeddingSet("need at least two distinct classes")
        emb.setflags(write=False)
        lab.setflags(write=False)
        object.__setattr__(self, "embeddings", emb)
        object.__setattr__(self, "labels", lab)


@dataclass(frozen=True)
class FisherResult:
    trace_between: float
    trace_within: float
    score: float


class Correlation(NamedTuple):
    pearson: float
    spearman: float


def pool_tokens(source) -> np.ndarray:
    """Mean over the token axis: FeatureMap -> (channels,), (N, d) -> (d,).

    Each feature's tokens are summed as one contiguous row, so numpy's
    ``sum`` takes its pairwise path along them, after an exact power-of-two
    scale of the row, so the means are finite over the whole float64 range;
    a NaN or Inf is a ``NonFiniteValue``. `source` may also be an open
    tensor file as ``tensor_io._map_payloads`` hands it over, with the bits
    of the map in memory."""
    if isinstance(source, (FeatureMap, _Payload)):
        # this thread's hfr scratch; pow2_scale widens <f4 rows exactly, one at a time
        chunk, spare, _ = _buffers(source.shape)
        means: list = []
        for _, values, _ in _channel_chunks(source, chunk, spare.reshape(-1).view("<f4")):
            means += _row_means(values.reshape(len(values), -1))
        return np.array(means)
    tokens = np.asarray(source, dtype=np.float64)
    if tokens.ndim != 2:
        raise EmptyInput(f"token matrix must be (N, d), got shape {tokens.shape}")
    if tokens.shape[0] == 0:
        raise EmptyInput("cannot pool zero tokens")
    return np.array(_row_means(np.ascontiguousarray(tokens.T)))


def _row_means(rows: np.ndarray) -> list:
    # one row scaled at a time, so no copy of all the rows exists
    return [np.ldexp(s.sum() / rows.shape[1], e) for s, e in map(pow2_scale, rows)]


def fisher_score(data: LabeledEmbeddingSet) -> FisherResult:
    """Trace-form Fisher score; class order cannot affect the result.

    The traces are computed on the embeddings scaled by one exact power of
    two, so the score is finite over the whole float64 range; the reported
    traces are scaled back and may themselves overflow or underflow.
    """
    emb, exponent = pow2_scale(data.embeddings)
    labels = data.labels
    grand_mean = pool_tokens(emb)
    within_parts = []
    between_parts = []
    for cls in np.unique(labels):
        rows = emb[labels == cls]
        mu = pool_tokens(rows)
        centred = rows - mu
        within_parts.append((centred * centred).sum())
        offset = mu - grand_mean
        between_parts.append(rows.shape[0] * (offset * offset).sum())
    trace_within = math.fsum(within_parts)
    trace_between = math.fsum(between_parts)
    if trace_within == 0.0:
        raise DegenerateWithinScatter(
            "all classes are internally constant; the Fisher ratio is undefined"
        )
    with np.errstate(over="ignore"):
        traces = np.ldexp([trace_between, trace_within], 2 * exponent)
    return FisherResult(float(traces[0]), float(traces[1]), trace_between / trace_within)


def _as_series(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise EmptyInput(f"{name} series is empty")
    if not np.isfinite(arr).all():
        raise SeriesInvalid(f"{name} series contains NaN or Inf")
    return arr


def _check_pair(xs: np.ndarray, ys: np.ndarray) -> None:
    if xs.size != ys.size:
        raise SeriesInvalid(f"series lengths differ: {xs.size} vs {ys.size}")
    if xs.size < 3:
        raise SeriesInvalid(f"need at least 3 paired values, got {xs.size}")


def _centred(values: np.ndarray) -> np.ndarray:
    """`values` minus their mean, centred twice: the second pass removes the
    mean's rounding, which matters when the spread is a few ulp of it."""
    d = values - math.fsum(values) / values.size
    return d - math.fsum(d) / d.size


def _pearson_checked(xs: np.ndarray, ys: np.ndarray) -> float:
    # checked before centring: a mean that rounds off by an ulp would leave a
    # constant series with small nonzero deviations
    if xs.min() == xs.max() or ys.min() == ys.max():
        raise ConstantSeries("correlation is undefined for a zero-variance series")
    xc, yc = _centred(pow2_scale(xs)[0]), _centred(pow2_scale(ys)[0])
    ssx = math.fsum(xc * xc)
    ssy = math.fsum(yc * yc)
    r = math.fsum(xc * yc) / np.sqrt(ssx * ssy)
    return float(min(1.0, max(-1.0, r)))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank block."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def correlate(xs, ys) -> Correlation:
    """Pearson and Spearman, together, for one aligned pair of series."""
    xs, ys = _as_series(xs, "x"), _as_series(ys, "y")
    _check_pair(xs, ys)
    return Correlation(
        pearson=_pearson_checked(xs, ys),
        spearman=_pearson_checked(_average_ranks(xs), _average_ranks(ys)),
    )


def read_series_csv(path) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Parse a ``t,value`` CSV; timesteps must be strictly increasing ints."""
    ts: list[int] = []
    vs: list[float] = []
    for lineno, (t, v) in read_csv(path, _SERIES_HEADER, (int, float), SeriesInvalid):
        if not np.isfinite(v):
            raise SeriesInvalid(f"{path}: line {lineno} has a non-finite value")
        if ts and t <= ts[-1]:
            raise SeriesInvalid(f"{path}: timesteps must be strictly increasing (line {lineno})")
        ts.append(t)
        vs.append(v)
    if not ts:
        raise SeriesInvalid(f"{path}: series has no data rows")
    return tuple(ts), tuple(vs)
