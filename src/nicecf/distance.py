"""Heterogeneous distance over mixed feature types, plus neighbor scans.

The per-feature distance is the overlap metric for categorical features
(0 when equal, 1 otherwise) and the training-range-normalized absolute
difference for numerical ones. A numerical feature whose training range is
zero degenerates to the overlap rule. Feature distances are combined as a
weighted L1 sum; weights express the relative cost of changing each feature
and default to 1.

Vectorized scans against a dataset accumulate per-feature terms in schema
order so their sums are bit-identical to the scalar path.

:func:`heom` and :func:`heom_to_rows` raise :class:`EncodeError` for an
instance that breaks the row rule of the statistics' encoding plan (the
training schema's, for :func:`fit_stats` output), a row of the wrong length
included. :func:`heom_to_rows`, and so :func:`k_nearest` and
:func:`nearest_unlike_neighbor`, first raise :class:`DistanceError` when the
statistics do not describe the dataset's features. A numeric term too large
for a float is ``inf``, without a warning, on every path.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DistanceError, NoUnlikeNeighborError
from .tabular import _OUT_OF_RANGE, Dataset, FeatureKind, FeatureStats, Instance, _plan


def check_weights(stats: Sequence[FeatureStats], weights: Sequence[float] | None) -> tuple[float, ...]:
    """Check one positive finite int or float (not a bool) per feature; None means all ones."""
    if weights is None:
        return (1.0,) * len(stats)
    if len(weights) != len(stats):
        raise DistanceError(f"{len(weights)} weights for {len(stats)} features")
    for stat, w in zip(stats, weights):
        try:
            good = (not isinstance(w, bool) and isinstance(w, (int, float))
                    and 0.0 < float(w) < math.inf)
            got = repr(w)
        except OverflowError:
            good, got = False, f"an {_OUT_OF_RANGE}"
        if not good:
            raise DistanceError(f"weight for '{stat.name}' must be positive and finite, got {got}")
    return tuple(float(w) for w in weights)


def heom_feature(stat: FeatureStats, a: "str | float", b: "str | float") -> float:
    """Distance contribution of one feature, in [0, 1] for in-range values.

    Categorical: 0 if the labels match, else 1. Numerical: |a - b| divided by
    the training range; a zero range means 0 for equal values and 1 otherwise.
    """
    if stat.kind is FeatureKind.CATEGORICAL:
        return 0.0 if a == b else 1.0
    if stat.range == 0.0:
        return 0.0 if a == b else 1.0
    return abs(float(a) - float(b)) / stat.range


def heom(
    stats: Sequence[FeatureStats],
    a: Instance,
    b: Instance,
    weights: Sequence[float] | None = None,
) -> float:
    """Weighted L1 sum of per-feature distances between two instances."""
    rule = _plan(stats).rule
    rule.check(a)
    rule.check(b)
    w = check_weights(stats, weights)
    total = 0.0
    for stat, wj, aj, bj in zip(stats, w, a, b):
        total += wj * heom_feature(stat, aj, bj)
    return total


def heom_to_rows(
    stats: Sequence[FeatureStats],
    x: Instance,
    dataset: Dataset,
    weights: Sequence[float] | None = None,
) -> np.ndarray:
    """Distances from one instance to every row of a dataset.

    Accumulates one feature at a time in schema order; entry i is
    bit-identical to ``heom(stats, x, dataset.rows[i], weights)``.
    """
    plan = _plan(stats)
    plan._check_dataset(dataset)
    plan.rule.check(x)
    w = check_weights(stats, weights)
    return _weighted_scan(stats, [stat.range for stat in stats], [x], dataset, w)[0]


def _weighted_scan(
    stats: Sequence[FeatureStats],
    scales: Sequence[float],
    xs: Sequence[Instance],
    dataset: Dataset,
    weights: Sequence[float],
) -> np.ndarray:
    """Weighted L1 distances from each of ``xs`` to every row, shape (len(xs), rows).

    Numeric terms are divided by ``scales``. Categorical features, and
    numerical ones whose scale is zero, use the 0/1 overlap. Terms are
    accumulated one feature at a time in schema order, so each row of the
    result is bit-identical to a scan of that instance alone. Within one
    feature, the weighted term of each distinct value is computed once and
    added to every instance holding it: each greedy-search candidate differs
    from the current instance in one feature, so such a batch holds at most
    two values per feature.
    Arguments are not validated; callers pass checked weights.
    """
    total = np.zeros((len(xs), len(dataset)), dtype=np.float64)
    rows = list(total)  # one view per instance; ``row += term`` writes into ``total``
    cols = dataset.columns()
    with np.errstate(over="ignore"):  # a term too large for a float is inf, as in heom
        for j, (stat, scale, wj) in enumerate(zip(stats, scales, weights)):
            holders: dict = {}
            if stat.kind is FeatureKind.CATEGORICAL:
                codes, mapping = cols[j]
                for row, x in zip(rows, xs):
                    holders.setdefault(mapping.get(x[j], -1), []).append(row)
            else:
                for row, x in zip(rows, xs):
                    holders.setdefault(float(x[j]), []).append(row)
            for value, holding in holders.items():
                if stat.kind is FeatureKind.CATEGORICAL:
                    term = (codes != value).astype(np.float64)
                elif scale == 0.0:
                    term = (cols[j] != value).astype(np.float64)
                else:
                    term = np.abs(value - cols[j]) / scale
                weighted = term if wj == 1.0 else wj * term  # x * 1.0 == x, bit for bit
                for row in holding:
                    row += weighted
    return total


def k_smallest(d: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest entries of ``d``, ordered by (value, index).

    Equal to ``np.lexsort((np.arange(len(d)), d))[:k]``, but sorts only the
    entries not above the k-th smallest value, which ``np.partition`` finds.
    NaN sorts last, so a NaN k-th value keeps every entry.
    """
    kth = np.partition(d, k - 1)[k - 1]
    candidates = np.flatnonzero(~(d > kth))
    return candidates[np.lexsort((candidates, d[candidates]))[:k]]


def k_nearest(
    stats: Sequence[FeatureStats],
    x: Instance,
    dataset: Dataset,
    k: int,
    weights: Sequence[float] | None = None,
) -> list[int]:
    """Indices of the k nearest rows, closest first; distance ties break by row index."""
    if k < 1:
        raise DistanceError(f"k must be >= 1, got {k}")
    if k > len(dataset):
        raise DistanceError(f"k={k} exceeds dataset size {len(dataset)}")
    d = heom_to_rows(stats, x, dataset, weights)
    return [int(i) for i in k_smallest(d, k)]


def nearest_unlike_neighbor(
    stats: Sequence[FeatureStats],
    x: Instance,
    train: Dataset,
    train_predictions: Sequence[int],
    predicted_class: int,
    weights: Sequence[float] | None = None,
) -> int:
    """Index of the nearest correctly-predicted training row of the other class.

    Candidate rows must both be predicted differently from ``predicted_class``
    and carry a ground-truth label equal to their own prediction. Distance
    ties break toward the smaller row index. Raises
    :class:`NoUnlikeNeighborError` when no row qualifies.
    """
    if train.labels is None:
        raise DistanceError("training dataset has no labels")
    if len(train_predictions) != len(train):
        raise DistanceError("one prediction per training row is required")
    preds = np.asarray(train_predictions, dtype=np.int64)
    labels = train.label_array()
    eligible = (preds != predicted_class) & (labels == preds)
    if not bool(eligible.any()):
        raise NoUnlikeNeighborError(
            "no correctly-predicted training instance of the opposite class"
        )
    d = heom_to_rows(stats, x, train, weights)
    d = np.where(eligible, d, np.inf)
    return int(np.argmin(d))
