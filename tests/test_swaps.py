"""Swap scoring: a swap state scores exactly what scoring each hybrid scores.

The greedy search scores ``current`` with feature j taken from ``target``,
for every j left, through one swap state per search. The logistic model and
the autoencoder scorer answer from two encodings patched per feature; these
tests hold them to the per-hybrid path and to a one-vector reference, in
float hex, and the encodings to a reference encoder.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit

import nicecf.tabular
from nicecf.explainers import RewardKind, SearchContext, explain_nice, explain_sedc
from nicecf.model import ClassifierHandle, train_logistic
from nicecf.plausibility import AEConfig, ae_error, ae_scorer, swap_state, train_autoencoder
from nicecf.synthetic import make_dataset
from nicecf.tabular import (
    EncodedSwaps,
    FeatureKind,
    _EncodingPlan,
    encode,
    encode_batch,
    fit_stats,
    swap_hybrids,
)
from strategies import INTS_OR_FLOATS, swap_problems


def fitted(table):
    stats = fit_stats(table)
    model = train_logistic(stats, table, epochs=20)
    ae = train_autoencoder(table, AEConfig(epochs=5), stats)
    return stats, model, ae


@functools.lru_cache(maxsize=1)
def wide():
    """Check [10]'s shape of data (12 numerical, 8 categorical features), fully trained.

    Wide encodings with many inexact products are where a different summation
    order shows in the last bits; the small random schemas rarely have them.
    """
    table = make_dataset(300, 12, 8, seed=606, noise=0.02)
    stats = fit_stats(table)
    return table, stats, train_logistic(stats, table), train_autoencoder(table, AEConfig(), stats)


@st.composite
def wide_steps(draw):
    """A pair of rows of :func:`wide` and the features in which they differ."""
    table = wide()[0]
    current, target = (table.rows[draw(st.integers(0, len(table) - 1))] for _ in range(2))
    return current, target, [j for j in range(len(current)) if current[j] != target[j]]


def reference_encode(stats, x):
    """The encoding worked out afresh on every call: slot counts, then ``tuple.index``.

    A category the statistics lack sets none of its feature's slots.
    """
    widths = [1 if s.kind is FeatureKind.NUMERICAL else len(s.categories) for s in stats]
    out = np.zeros(sum(widths), dtype=np.float64)
    pos = 0
    for stat, width, value in zip(stats, widths, x):
        if stat.kind is FeatureKind.NUMERICAL:
            if stat.range > 0.0:
                out[pos] = (value - stat.min) / stat.range
        elif value in stat.categories:
            out[pos + stat.categories.index(value)] = 1.0
        pos += width
    return out


def hexes(values):
    return [float(v).hex() for v in values]


def logistic_reference(model, x):
    """One dot product of one fresh encoding, then the logistic function."""
    z = float(np.dot(encode(model.stats, x), model.coef)) + model.intercept
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    return math.exp(z) / (1.0 + math.exp(z))


def ae_reference(ae, stats, x):
    """Reconstruction error of one fresh encoding, one vector-matrix product per layer."""
    v = encode(stats, x)
    diff = (expit(v @ ae.w1 + ae.b1) @ ae.w2 + ae.b2) - v
    return float(np.dot(diff, diff)) / ae.width


def scored_swaps(scorer, current, target, features):
    """Scores of one ``scores`` call to a fresh swap state of a plausibility scorer."""
    return swap_state(scorer, current, target).scores(features)


class ScoreBatchOnly(ClassifierHandle):
    """Forwards ``score_batch`` only, so the default swap state is used.

    ``swap_calls`` counts the ``scores`` calls of every swap state it made.
    """

    def __init__(self, inner):
        self.inner = inner
        self.swap_calls = 0

    def score_batch(self, xs):
        return self.inner.score_batch(xs)

    def swap_state(self, current, target):
        state = super().swap_state(current, target)
        scores = state.scores

        def counted(features):
            self.swap_calls += 1
            return scores(features)

        state.scores = counted
        return state


class TestSwapHybrids:
    def test_one_feature_taken_per_hybrid(self):
        hybrids = swap_hybrids(["a", 1.0, "c"], ("x", 2.0, "z"), [2, 0, 2])
        assert hybrids == [("a", 1.0, "z"), ("x", 1.0, "c"), ("a", 1.0, "z")]
        assert swap_hybrids(("a",), ("x",), []) == []

    @settings(max_examples=150, deadline=None)
    @given(swap_problems())
    def test_rows_match_encode_of_hybrids_bitwise(self, problem):
        table, current, target, features = problem
        stats = fit_stats(table)
        rows = EncodedSwaps(stats, current, target, np.copy).scores(features)
        hybrids = swap_hybrids(current, target, features)
        assert len(rows) == len(features)
        for row, hybrid in zip(rows, hybrids):
            assert row.tobytes() == encode(stats, hybrid).tobytes()

    @pytest.mark.parametrize("n_features", [0, 1, 3, 8])
    def test_encodes_twice_whatever_the_feature_count(self, mixed_dataset, monkeypatch,
                                                      n_features):
        stats, model, ae = fitted(mixed_dataset)
        scorer = ae_scorer(ae, stats)
        current, target = mixed_dataset.rows[0], mixed_dataset.rows[1]
        features = [j % len(stats) for j in range(n_features)]
        calls = []
        real = nicecf.tabular.encode
        monkeypatch.setattr(nicecf.tabular, "encode",
                            lambda *args: calls.append(1) or real(*args))
        for state in (model.swap_state, scorer.swap_state):
            calls.clear()
            assert len(state(current, target).scores(features)) == n_features
            assert len(calls) == 2


class TestEncodingPlan:
    @settings(max_examples=150, deadline=None)
    @given(swap_problems(numbers=INTS_OR_FLOATS))
    def test_encodings_match_the_reference_bitwise(self, problem):
        table, current, target, _ = problem
        stats = fit_stats(table)
        plan = _EncodingPlan(stats)
        assert plan == tuple(stats)
        rows = list(table.rows) + [current]
        expected = [reference_encode(stats, x).tobytes() for x in rows]
        assert [encode(plan, x).tobytes() for x in rows] == expected
        assert [encode(stats, x).tobytes() for x in rows] == expected
        assert [v.tobytes() for v in encode_batch(plan, rows)] == expected
        assert [v.tobytes() for v in encode_batch(stats, rows)] == expected

    @settings(max_examples=150, deadline=None)
    @given(swap_problems(numbers=INTS_OR_FLOATS), st.data())
    def test_state_rows_and_base_follow_any_takes(self, problem, data):
        table, current, target, features = problem
        stats = fit_stats(table)
        state = EncodedSwaps(_EncodingPlan(stats), current, target, np.copy)
        taken = data.draw(st.lists(st.integers(0, len(current) - 1), max_size=2 * len(current)))
        current = list(current)
        for j in [None] + taken:
            if j is not None:
                state.take(j)
                current[j] = target[j]
            assert state.base.tobytes() == reference_encode(stats, current).tobytes()
            rows = state.scores(features)
            hybrids = swap_hybrids(current, target, features)
            assert [v.tobytes() for v in rows] == [
                reference_encode(stats, h).tobytes() for h in hybrids
            ]
            assert state.donor.tobytes() == reference_encode(stats, target).tobytes()


class TestLogisticSwaps:
    @settings(max_examples=150, deadline=None)
    @given(swap_problems())
    def test_matches_score_batch_of_hybrids(self, problem):
        table, current, target, features = problem
        stats, model, _ = fitted(table)
        hybrids = swap_hybrids(current, target, features)
        swapped = hexes(model.swap_state(current, target).scores(features))
        assert swapped == hexes(model.score_batch(hybrids))
        assert swapped == hexes(logistic_reference(model, h) for h in hybrids)
        assert swapped == hexes(ScoreBatchOnly(model).swap_state(current, target).scores(features))

    @settings(max_examples=50, deadline=None)
    @given(wide_steps())
    def test_matches_one_dot_product_per_row_on_wide_data(self, step):
        _, _, model, _ = wide()
        current, target, features = step
        hybrids = swap_hybrids(current, target, features)
        swapped = hexes(model.swap_state(current, target).scores(features))
        assert swapped == hexes(model.score_batch(hybrids))
        assert swapped == hexes(logistic_reference(model, h) for h in hybrids)


class TestAeSwaps:
    @settings(max_examples=150, deadline=None)
    @given(swap_problems())
    def test_matches_ae_error_of_hybrids(self, problem):
        table, current, target, features = problem
        stats, _, ae = fitted(table)
        hybrids = swap_hybrids(current, target, features)
        swapped = hexes(scored_swaps(ae_scorer(ae, stats), current, target, features))
        assert swapped == hexes(ae_error(ae, stats, h) for h in hybrids)
        assert swapped == hexes(ae_reference(ae, stats, h) for h in hybrids)

    @settings(max_examples=50, deadline=None)
    @given(wide_steps())
    def test_matches_one_vector_at_a_time_on_wide_data(self, step):
        _, stats, _, ae = wide()
        hybrids = swap_hybrids(*step)
        swapped = hexes(scored_swaps(ae_scorer(ae, stats), *step))
        assert swapped == hexes(ae_error(ae, stats, h) for h in hybrids)
        assert swapped == hexes(ae_reference(ae, stats, h) for h in hybrids)

    def test_plain_callable_scores_each_hybrid(self, mixed_dataset):
        stats, _, ae = fitted(mixed_dataset)
        current, target = mixed_dataset.rows[0], mixed_dataset.rows[1]
        seen = []

        def scorer(x):
            seen.append(x)
            return ae_error(ae, stats, x)

        features = [3, 0, 3]
        scores = scored_swaps(scorer, current, target, features)
        assert seen == swap_hybrids(current, target, features)
        assert hexes(scores) == hexes(scored_swaps(ae_scorer(ae, stats), current, target, features))


@settings(max_examples=100, deadline=None)
@given(swap_problems())
def test_unseen_category_in_current_scores_the_same_on_every_path(problem):
    table, current, target, features = problem
    categorical = [j for j, s in enumerate(table.schema) if s.kind is FeatureKind.CATEGORICAL]
    assume(categorical)
    k = categorical[0]
    # At least one hybrid keeps the unseen value.
    assume(any(j != k for j in features))
    current = current[:k] + ("unseen",) + current[k + 1 :]
    stats, model, ae = fitted(table)
    hybrids = swap_hybrids(current, target, features)
    swapped = hexes(model.swap_state(current, target).scores(features))
    assert swapped == hexes(model.score_batch(hybrids))
    assert swapped == hexes(logistic_reference(model, h) for h in hybrids)
    swapped = hexes(scored_swaps(ae_scorer(ae, stats), current, target, features))
    assert swapped == hexes(ae_error(ae, stats, h) for h in hybrids)
    assert swapped == hexes(ae_reference(ae, stats, h) for h in hybrids)


@settings(max_examples=60, deadline=None)
@given(swap_problems())
def test_search_takes_the_same_steps_on_the_default_path(problem):
    table, x0, _, _ = problem
    stats, model, ae = fitted(table)
    fast = SearchContext(table, stats, model, scorer=ae_scorer(ae, stats))
    default = ScoreBatchOnly(model)
    slow = SearchContext(table, stats, default, scorer=lambda x: ae_error(ae, stats, x))

    def run(ctx, kind):
        if kind is None:
            return explain_sedc(x0, ctx)
        return explain_nice(x0, kind, ctx)

    def key(result):
        steps = [(s.feature, float(s.reward).hex(), float(s.score).hex()) for s in result.trace]
        return result.counterfactual, result.valid, result.anchor_index, steps

    for kind in (RewardKind.SPARSITY, RewardKind.PROXIMITY, RewardKind.PLAUSIBILITY, None):
        default.swap_calls = 0
        expected = run(slow, kind)
        assert key(run(fast, kind)) == key(expected)
        assert default.swap_calls == len(expected.trace)


@pytest.mark.parametrize("kind, states", [
    (RewardKind.SPARSITY, 1), (RewardKind.PLAUSIBILITY, 2), (None, 1),
])
def test_search_encodes_twice_per_state(mixed_dataset, monkeypatch, kind, states):
    stats, model, ae = fitted(mixed_dataset)
    ctx = SearchContext(mixed_dataset, stats, model, scorer=ae_scorer(ae, stats))
    calls = []
    real = nicecf.tabular.encode
    monkeypatch.setattr(nicecf.tabular, "encode", lambda *args: calls.append(1) or real(*args))
    lengths = set()
    for x0 in mixed_dataset.rows[:40]:
        calls.clear()
        expl = explain_sedc(x0, ctx) if kind is None else explain_nice(x0, kind, ctx)
        lengths.add(len(expl.trace))
        assert len(calls) == 2 * states
    assert max(lengths) >= 3


def test_each_search_starts_its_own_state(mixed_dataset):
    stats, model, ae = fitted(mixed_dataset)
    shared = SearchContext(mixed_dataset, stats, model, scorer=ae_scorer(ae, stats))
    for kind in (RewardKind.SPARSITY, RewardKind.PLAUSIBILITY):
        for x0 in mixed_dataset.rows[:10]:
            fresh = SearchContext(mixed_dataset, stats, train_logistic(stats, mixed_dataset, epochs=20),
                                  scorer=ae_scorer(ae, stats))
            got, expected = explain_nice(x0, kind, shared), explain_nice(x0, kind, fresh)
            assert (got.counterfactual, hexes(s.reward for s in got.trace)) == (
                expected.counterfactual, hexes(s.reward for s in expected.trace))
