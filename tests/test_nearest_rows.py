"""Every choice of training rows by distance follows one rule.

``distance.k_smallest`` orders candidate rows by (distance, row index). The
nearest unlike neighbour, the wit baseline, the cbr pair, ``k_nearest``, the
kNN vote and the knn5 metric must each pick what a brute-force sort of their
own candidates by (scalar distance, row index) picks, also when every
distance overflows to ``inf``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nicecf.distance import heom, k_nearest, nearest_unlike_neighbor
from nicecf.errors import NoUnlikeNeighborError
from nicecf.evaluation import compute_metrics
from nicecf.explainers import (
    Explanation,
    RewardKind,
    SearchContext,
    explain_cbr,
    explain_nice,
    explain_wit,
)
from nicecf.model import ClassifierHandle, train_knn_classifier
from nicecf.synthetic import make_dataset
from nicecf.tabular import Dataset, FeatureKind, FeatureSpec, fit_stats
from strategies import FEW_NUMBERS, NUMBERS, knn_reference_score, mixed_tables, nearest_order


class LookupModel(ClassifierHandle):
    """Predicts a fixed class for each listed row and ``default`` for any other."""

    def __init__(self, classes, default):
        self.classes = dict(classes)
        self.default = default

    def score_batch(self, xs):
        return np.array([float(self.classes.get(tuple(x), self.default)) for x in xs])


@st.composite
def selection_problems(draw):
    """A table with random labels, an instance, random predictions, and weights.

    Returns (table, x, classes, default, weights): ``classes`` pairs rows
    with their predicted class (a repeated row keeps its last class), and
    ``default`` is the class of any other row.
    """
    table, x = draw(mixed_tables(numbers=draw(st.sampled_from((NUMBERS, FEW_NUMBERS)))))
    n, m = len(table), len(x)
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    classes = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    weights = draw(st.none() | st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m))
    return (Dataset(table.schema, table.rows, labels), x, tuple(zip(table.rows, classes)),
            draw(st.integers(0, 1)), weights)


# Every distance from the source is inf, per range and per std alike (1e160
# over a range of 1e-150), and row 0 is predicted as the source's class, so
# neither the nearest unlike neighbour nor wit may pick it. Row 1 is
# misclassified: wit takes it, the nearest unlike neighbour takes row 2.
ALL_INF = (
    Dataset([FeatureSpec("f0", FeatureKind.NUMERICAL)],
            [(0.0,), (1e-150,), (1e-150,), (0.0,)], [0, 0, 1, 1]),
    (1e160,), (((0.0,), 0), ((1e-150,), 1)), 0, None,
)


def first(order, candidates):
    return next(i for i in order if i in candidates)


def wit_distance(ctx, x, row):
    """Scalar wit distance: HEOM with numbers scaled by the training std."""
    total = 0.0
    for stat, w, a, b in zip(ctx.stats, ctx.weights, x, row):
        if stat.kind is FeatureKind.CATEGORICAL or stat.std == 0.0:
            term = 0.0 if a == b else 1.0
        else:
            term = abs(float(a) - float(b)) / stat.std
        total += w * term
    return total


@settings(max_examples=300, deadline=None)
@given(selection_problems())
@example(ALL_INF)
def test_every_selection_is_the_first_by_distance_then_row_index(problem):
    table, x, classes, default, weights = problem
    stats = fit_stats(table)
    model = LookupModel(classes, default)
    ctx = SearchContext(table, stats, model, weights, scorer=lambda row: 0.0)
    rows, n = table.rows, len(table)
    preds = [int(p) for p in ctx.train_predictions()]
    c0 = model.predict(x)
    order = nearest_order(stats, x, table, ctx.weights)

    # The nearest unlike neighbour: correctly predicted rows of the other class.
    unlike = {i for i in range(n) if preds[i] != c0 and table.labels[i] == preds[i]}
    if unlike:
        assert nearest_unlike_neighbor(stats, x, table, preds, c0, ctx.weights) == first(
            order, unlike)
    else:
        with pytest.raises(NoUnlikeNeighborError):
            nearest_unlike_neighbor(stats, x, table, preds, c0, ctx.weights)

    # wit: every row predicted as the other class, under per-std distances.
    wit_d = [wit_distance(ctx, x, row) for row in rows]
    other = {i for i in range(n) if preds[i] != c0}
    if other:
        expected = first(sorted(range(n), key=lambda i: (wit_d[i], i)), other)
        assert explain_wit(x, ctx).anchor_index == expected
    else:
        with pytest.raises(NoUnlikeNeighborError):
            explain_wit(x, ctx)

    # cbr: the case-base members of the source's class; ties go to case-base order.
    base = ctx.case_base()
    if len(base):
        d = [heom(stats, x, rows[i], ctx.weights) for i in base[:, c0]]
        pair = base[min(range(len(base)), key=lambda p: (d[p], p))]
        same, opposite = rows[pair[c0]], rows[pair[1 - c0]]
        assert explain_cbr(x, ctx).counterfactual == tuple(
            o if s != o else v for v, s, o in zip(x, same, opposite))

    # k_nearest: every row.
    for k in range(1, n + 1):
        assert k_nearest(stats, x, table, k, ctx.weights) == order[:k]

    # The kNN vote and the knn5 metric: every row, unweighted.
    for k in range(1, n + 1, 2):
        score = train_knn_classifier(stats, table, k).score(x)
        assert score.hex() == knn_reference_score(stats, x, table, k).hex()
    nearest = nearest_order(stats, x, table)[:5]
    expected = float(np.mean([heom(stats, x, rows[i]) for i in nearest]))
    probe = Explanation("probe", x, x, True, frozenset(), (), 0.0)
    assert compute_metrics(probe, ctx).knn5.hex() == expected.hex()


class FirstFeatureModel(ClassifierHandle):
    """Class 1 exactly when the first feature exceeds 1.5."""

    def score_batch(self, xs):
        return np.array([1.0 if x[0] > 1.5 else 0.0 for x in xs])


@pytest.mark.parametrize("explain", [
    lambda x, ctx: explain_nice(x, RewardKind.NONE, ctx),
    lambda x, ctx: explain_nice(x, RewardKind.SPARSITY, ctx),
    explain_wit,
], ids=["nice-none", "nice-spars", "wit"])
def test_a_source_whose_distances_all_overflow_is_still_explained(explain):
    # Every distance from this source is inf; row 0 is predicted class 1 like it.
    data = make_dataset(200, 3, 1, seed=4)
    ctx = SearchContext(data, fit_stats(data), FirstFeatureModel())
    x0 = (1.7e308, 1.7e308, 1.7e308, data.rows[0][3])
    assert ctx.model.predict(x0) == ctx.model.predict(data.rows[0]) == 1
    expl = explain(x0, ctx)
    assert expl.valid
    assert ctx.model.predict(expl.counterfactual) == 0
