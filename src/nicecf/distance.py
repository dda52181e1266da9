"""Heterogeneous distance over mixed feature types, plus neighbor scans.

The per-feature distance is the overlap metric for categorical features
(0 when equal, 1 otherwise) and the training-range-normalized absolute
difference for numerical ones. A numerical feature whose training range is
zero degenerates to the overlap rule. Feature distances are combined as a
weighted L1 sum; weights express the relative cost of changing each feature
and default to 1.

Vectorized scans against a dataset accumulate per-feature terms in schema
order so their sums are bit-identical to the scalar path.

Each explained source's record makes one :class:`_TermStore`, its thread's
newest, which every scan of the very :class:`Dataset` it covers reads: the
neighbour scan, the baselines', the kNN model's scores and swap states and
the metrics of the source's counterfactuals, none of them handed anything.
Any scan over that training set may read it because HEOM is a sum of
per-feature terms (Wilson and Martinez, JAIR 1997): a term is a pure
function of (training set, feature, scale, value), every scan reads it for
that key and multiplies it by the feature's weight as it is read, and every
scan adds the terms one feature at a time in schema order. A value equal to
the key's under ``==`` (``-0.0`` for ``0.0``, ``1`` for ``1.0``) gives the
same term bit for bit, so it may read it too.

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
import numbers
import threading
import weakref
from typing import Sequence

import numpy as np

from .errors import DistanceError, NoUnlikeNeighborError
from .tabular import _OUT_OF_RANGE, Dataset, FeatureKind, FeatureStats, Instance, _plan


def check_weights(stats: Sequence[FeatureStats], weights: Sequence[float] | None) -> tuple[float, ...]:
    """Check one positive finite ``numbers.Real`` (not a bool) per feature; None means all ones."""
    if weights is None:
        return (1.0,) * len(stats)
    if len(weights) != len(stats):
        raise DistanceError(f"{len(weights)} weights for {len(stats)} features")
    for stat, w in zip(stats, weights):
        try:
            good = (not isinstance(w, bool) and isinstance(w, numbers.Real)
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

    Each feature's terms are :func:`_feature_terms` over ``scales``. Terms are
    accumulated one feature at a time in schema order, so each row of the
    result is bit-identical to a scan of that instance alone. Within one
    feature, the weighted term of each distinct value is computed once and
    added to every instance holding it. The kNN warm-up, which scores every
    training row, is the main caller with many instances: a categorical
    feature has few distinct values there, so most of its terms are shared.
    When the thread's newest :class:`_TermStore` covers ``dataset`` itself,
    the terms are read from it, and one it lacks is added when the store
    keeps it: a term depends on that training set and its key alone, so
    every scan over it may share the store. Arguments are not validated;
    callers pass checked instances and weights.
    """
    store = _newest_store(dataset)
    total = np.zeros((len(xs), len(dataset)), dtype=np.float64)
    rows = list(total)  # one view per instance; ``row += term`` writes into ``total``
    cols = dataset.columns()
    with np.errstate(over="ignore"):  # a term too large for a float is inf, as in heom
        for j, (stat, scale, wj) in enumerate(zip(stats, scales, weights)):
            holders: dict = {}
            for row, x in zip(rows, xs):
                holders.setdefault(x[j], []).append(row)
            for value, holding in holders.items():
                term = (_feature_terms(stat, scale, cols[j], value) if store is None
                        else store.terms(j, scale, value))
                weighted = term if wj == 1.0 else wj * term  # x * 1.0 == x, bit for bit
                for row in holding:
                    row += weighted
    return total


def _term_matrix(stats: Sequence[FeatureStats], x: Instance, dataset: Dataset) -> np.ndarray:
    """(features, rows) matrix of a checked ``x``'s range-scaled terms, read as scans read them."""
    store = _newest_store(dataset)
    cols = dataset.columns()
    out = np.empty((len(stats), len(dataset)), dtype=np.float64)
    with np.errstate(over="ignore"):  # a term too large for a float is inf, as in a scan
        for j, stat in enumerate(stats):
            out[j] = (_feature_terms(stat, stat.range, cols[j], x[j]) if store is None
                      else store.terms(j, stat.range, x[j]))
    return out


def _feature_terms(
    stat: FeatureStats, scale: float, column, value: "str | float", out: np.ndarray | None = None
) -> np.ndarray:
    """One feature's unweighted distance terms from ``value`` to every entry of its column.

    ``column`` is the feature's entry of :meth:`Dataset.columns`. Categorical
    features, and numerical ones whose scale is zero, use the 0/1 overlap;
    other numbers give ``|value - column| / scale``. Every term is
    non-negative; one too large for a float is ``inf``, with a warning unless
    the caller silences numpy's overflow. The terms are written into
    ``out``, a float64 vector of the column's length, when one is given.
    """
    if stat.kind is FeatureKind.CATEGORICAL:
        codes, mapping = column
        differs = codes != mapping.get(value, -1)
    elif scale == 0.0:
        differs = column != float(value)
    else:
        terms = np.subtract(float(value), column, out=out)
        np.abs(terms, out=terms)
        return np.divide(terms, scale, out=terms)
    if out is None:
        return differs.astype(np.float64)
    out[...] = differs
    return out


# The thread's newest _TermStore, by weak reference: its source's record owns it.
_newest = threading.local()


def _newest_store(dataset: Dataset) -> "_TermStore | None":
    """The thread's newest term store when it covers ``dataset`` itself, else None."""
    ref = getattr(_newest, "store", None)
    store = None if ref is None else ref()
    return store if store is not None and store.train is dataset else None


class _TermStore(dict):
    """One source's unweighted :func:`_feature_terms` over ``train``, by (feature index, scale, value).

    ``stats`` describe ``train`` and ``x0`` is the source. A new store
    registers itself as its thread's newest, which :func:`_weighted_scan`
    and :func:`_term_matrix` read in any scan over ``train`` itself; when
    the newest before it covers ``train`` too, it takes over that store's
    buffer and empties it. The registry holds a store by weak reference, so
    the record that made it decides how long it lives. Only the
    range-scaled terms of the source's values and, once ``anchor`` is set,
    of its anchor's values are kept: feature j's go to rows 2j and 2j + 1
    of the buffer, as read-only views. Every other term (a std-scaled one,
    or another instance's) serves the scan at hand only. A store that small
    stays in cache, and one holding every term was measured to slow the
    search down more than it saved. Which terms are kept does not depend on
    the order of the scans.
    """

    def __init__(self, train: Dataset, stats: Sequence[FeatureStats], x0: Instance):
        super().__init__()
        self.train, self.stats, self.x0 = train, stats, x0
        self.anchor: Instance | None = None
        self._ranges = [stat.range for stat in stats]
        last = _newest_store(train)
        if last is None:
            self._rows = np.empty((2 * len(stats), len(train)))
        else:  # stats describe train, so the shape is the same
            self._rows, last._rows = last._rows, None
            last.clear()
        _newest.store = weakref.ref(self)

    def terms(self, j: int, scale: float, value: "str | float") -> np.ndarray:
        """Feature ``j``'s terms from ``value``; call with numpy's overflow silenced."""
        key = (j, scale, value)
        term = self.get(key)
        if term is None:
            args = (self.stats[j], scale, self.train.columns()[j], value)
            if scale != self._ranges[j]:
                return _feature_terms(*args)
            if value == self.x0[j]:
                slot = 2 * j
            elif self.anchor is not None and value == self.anchor[j]:
                slot = 2 * j + 1
            else:
                return _feature_terms(*args)
            term = self[key] = _feature_terms(*args, self._rows[slot])
            term.flags.writeable = False
        return term


def k_smallest(d: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest entries of ``d``, ordered by (value, index).

    The one rule by which training rows are chosen by distance: ties, ``inf``
    with ``inf`` included, go to the smaller index. NaN sorts last, so a NaN
    k-th value keeps every entry. Equal to
    ``np.lexsort((np.arange(len(d)), d))[:k]``, but sorts only the entries
    not above the k-th smallest value, which ``np.partition`` finds.
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
    """Indices of the k nearest rows, in :func:`k_smallest` order."""
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
    and carry a ground-truth label equal to their own prediction; the nearest
    is the first of them in :func:`k_smallest` order. Raises
    :class:`NoUnlikeNeighborError` when no row qualifies.
    """
    if train.labels is None:
        raise DistanceError("training dataset has no labels")
    if len(train_predictions) != len(train):
        raise DistanceError("one prediction per training row is required")
    preds = np.asarray(train_predictions, dtype=np.int64)
    labels = train.label_array()
    rows = np.flatnonzero((preds != predicted_class) & (labels == preds))
    if len(rows) == 0:
        raise NoUnlikeNeighborError(
            "no correctly-predicted training instance of the opposite class"
        )
    d = heom_to_rows(stats, x, train, weights)
    return int(rows[k_smallest(d[rows], 1)[0]])
