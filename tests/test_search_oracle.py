"""The greedy explainers against a literal reference search, in float hex.

The reference works everything out afresh from scalar pieces: the nearest
unlike neighbour by a loop of :func:`heom` over the training rows, with the
correctness filter and ties to the first row; every single-feature hybrid
scored with its own ``model.score`` call in every iteration; the three
reward formulas written out; a NaN reward below every number and ties to
the smallest feature index. wit's row is the first nearest row predicted as
the other class by a scalar per-std distance summed in schema order; cbr's
pair is the first of a brute-force search over every pair of training rows.
All seven explainers (nice-none, nice-spars, nice-prox, nice-plaus, sedc,
wit and cbr) must give the same counterfactual, validity, anchor row and
trace under every kind of model: logistic, kNN, and a handle that implements
only ``score_batch``; nice-plaus under a plain callable scorer and under the
autoencoder's. Each model's explainers run one after another on one context
and one source tuple, so every one after the first starts from the record of
the source that the first made, and the anchor the first nice-* search found.
"""

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from nicecf.distance import heom
from nicecf.explainers import (
    RewardKind,
    SearchContext,
    explain_cbr,
    explain_nice,
    explain_sedc,
    explain_wit,
)
from nicecf.model import train_knn_classifier, train_logistic
from nicecf.plausibility import AEConfig, ae_scorer, train_autoencoder
from nicecf.tabular import Dataset, FeatureKind, fit_stats
from strategies import FEW_NUMBERS, NUMBERS, mixed_tables
from test_swaps import ScoreBatchOnly

EPSILON = 1e-9


def predicted(p):
    return 1 if p >= 0.5 else 0


def reference_anchor(stats, x0, table, model, c0, weights):
    """Index of the first nearest training row predicted as the other class and so labeled."""
    best = best_d = None
    for i, row in enumerate(table.rows):
        p = predicted(model.score(row))
        if p != c0 and table.labels[i] == p:
            d = heom(stats, x0, row, weights)
            if best is None or d < best_d:
                best, best_d = i, d
    return best


def reference_reward(kind, y_hat, p_prev, p_cand, cost, ae_prev, ae_cand):
    delta = y_hat * ((2.0 * p_prev - 1.0) - (2.0 * p_cand - 1.0))
    if kind is RewardKind.SPARSITY:
        return delta
    if kind is RewardKind.PROXIMITY:
        return delta / max(cost, EPSILON)
    return delta * (ae_prev - ae_cand)


def reference_search(x0, target, kind, model, scorer, stats, weights):
    """(counterfactual, trace, flipped) of the greedy search from ``x0`` toward ``target``."""
    p_prev = model.score(x0)
    c0 = predicted(p_prev)
    y_hat = 1 if c0 == 1 else -1
    current = list(x0)
    remaining = [j for j in range(len(x0)) if x0[j] != target[j]]
    trace = []
    while remaining:
        best = None
        for j in remaining:
            cand = list(current)
            cand[j] = target[j]
            p = model.score(tuple(cand))
            cost = heom(stats, tuple(current), tuple(cand), weights)
            ae = (scorer(tuple(current)), scorer(tuple(cand))) if scorer is not None else (None, None)
            r = reference_reward(kind, y_hat, p_prev, p, cost, *ae)
            if best is None or (not math.isnan(r) and (math.isnan(best[1]) or r > best[1])):
                best = (j, r, p)
        j, r, p_prev = best
        current[j] = target[j]
        remaining.remove(j)
        trace.append((j, r, 2.0 * p_prev - 1.0))
        if predicted(p_prev) != c0:
            return tuple(current), trace, True
    return tuple(current), trace, False


def reference(x0, kind, model, scorer, table, stats, weights):
    """(counterfactual, valid, anchor index, trace) of nice-<kind>, or of sedc for kind None."""
    if kind is None:
        kind, anchor = RewardKind.SPARSITY, None
        target = tuple(s.mean if s.kind is FeatureKind.NUMERICAL else s.mode for s in stats)
    else:
        anchor = reference_anchor(stats, x0, table, model, predicted(model.score(x0)), weights)
        if anchor is None:
            return tuple(x0), False, None, []
        target = table.rows[anchor]
        if kind is RewardKind.NONE:
            return target, True, anchor, []
    scorer = scorer if kind is RewardKind.PLAUSIBILITY else None
    counterfactual, trace, valid = reference_search(x0, target, kind, model, scorer, stats, weights)
    return counterfactual, valid, anchor, trace


def reference_wit(x0, model, table, stats, weights):
    """(counterfactual, valid, anchor index) of wit.

    The first nearest training row predicted as the other class, with no
    correctness filter, by HEOM with numbers scaled by their std (a zero std
    gives the 0/1 overlap), summed one feature at a time in schema order.
    """
    c0 = predicted(model.score(x0))
    weights = weights or [1.0] * len(stats)
    best = best_d = None
    for i, row in enumerate(table.rows):
        if predicted(model.score(row)) == c0:
            continue
        d = 0.0
        for stat, w, a, b in zip(stats, weights, x0, row):
            if stat.kind is FeatureKind.CATEGORICAL or stat.std == 0.0:
                d += w * (0.0 if a == b else 1.0)
            else:
                d += w * (abs(float(a) - float(b)) / stat.std)
        if best is None or d < best_d:
            best, best_d = i, d
    if best is None:
        return tuple(x0), False, None
    return table.rows[best], True, best


def reference_cbr(x0, model, table, stats, weights):
    """(counterfactual, valid) of cbr, by a search over every pair of training rows.

    A pair is two rows predicted as different classes that differ in one or
    two features. The pair whose member predicted as the source's class is
    nearest to the source by :func:`heom` wins, ties to the first pair by
    (lower row, higher row); its other member's differing values are copied
    into the source.
    """
    c0 = predicted(model.score(x0))
    preds = [predicted(model.score(row)) for row in table.rows]
    best = best_d = None
    for a, b in itertools.combinations(range(len(table)), 2):
        differing = sum(u != v for u, v in zip(table.rows[a], table.rows[b]))
        if preds[a] == preds[b] or not 1 <= differing <= 2:
            continue
        same, other = (a, b) if preds[a] == c0 else (b, a)
        d = heom(stats, x0, table.rows[same], weights)
        if best is None or d < best_d:
            best, best_d = (same, other), d
    if best is None:
        return tuple(x0), False
    same_row, other_row = (table.rows[i] for i in best)
    counterfactual = tuple(o if s != o else v for v, s, o in zip(x0, same_row, other_row))
    return counterfactual, predicted(model.score(counterfactual)) != c0


def hex_trace(trace):
    return [(j, float(r).hex(), float(s).hex()) for j, r, s in trace]


@st.composite
def search_problems(draw):
    """A labeled random table, its statistics, a source, weights and a scorer.

    The source is a table row or the extra instance of :func:`mixed_tables`.
    """
    table, extra = draw(mixed_tables(numbers=draw(st.sampled_from((NUMBERS, FEW_NUMBERS)))))
    n = len(table)
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    table = Dataset(table.schema, table.rows, labels)
    x0 = draw(st.one_of(st.just(extra), st.sampled_from(table.rows)))
    m = len(extra)
    weights = draw(st.none() | st.lists(st.sampled_from((0.5, 1.0, 3.0)), min_size=m, max_size=m))
    # A plain callable scorer: the summed costs of the features that differ
    # from x0. A cost may be inf, so plausibility rewards meet inf - inf,
    # 0 * inf and -inf.
    costs = draw(st.lists(st.sampled_from((0.0, 1.0, 2.5, math.inf)), min_size=m, max_size=m))

    def scorer(x):
        return sum(c for c, v, v0 in zip(costs, x, x0) if v != v0)

    return table, fit_stats(table), x0, weights, scorer


@settings(max_examples=200, deadline=None)
@given(search_problems())
def test_greedy_explainers_match_the_reference(problem):
    table, stats, x0, weights, scorer = problem
    logistic = train_logistic(stats, table, epochs=20)
    models = [logistic, ScoreBatchOnly(logistic), train_knn_classifier(stats, table, 1)]
    if len(table) >= 3:
        models.append(train_knn_classifier(stats, table, 3))
    ae = ae_scorer(train_autoencoder(table, AEConfig(epochs=3), stats), stats)
    runs = [(RewardKind.NONE, scorer), (RewardKind.SPARSITY, scorer),
            (RewardKind.PROXIMITY, scorer), (RewardKind.PLAUSIBILITY, scorer),
            (RewardKind.PLAUSIBILITY, ae), (None, scorer)]
    for model in models:
        ctx = SearchContext(table, stats, model, weights)
        for kind, kind_scorer in runs:
            ctx.scorer = kind_scorer
            got = explain_sedc(x0, ctx) if kind is None else explain_nice(x0, kind, ctx)
            counterfactual, valid, anchor, trace = reference(
                x0, kind, model, ctx.scorer, table, stats, weights)
            assert (got.counterfactual, got.valid, got.anchor_index) == (counterfactual, valid, anchor)
            assert hex_trace((s.feature, s.reward, s.score) for s in got.trace) == hex_trace(trace)
        got = explain_wit(x0, ctx)
        assert (got.counterfactual, got.valid, got.anchor_index, got.trace) == (
            *reference_wit(x0, model, table, stats, weights), ())
        got = explain_cbr(x0, ctx)
        assert (got.counterfactual, got.valid, got.anchor_index, got.trace) == (
            *reference_cbr(x0, model, table, stats, weights), None, ())
