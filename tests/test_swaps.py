"""Swap scoring: a swap state scores exactly what scoring each hybrid scores.

The greedy search scores ``current`` with feature j taken from ``target``,
for every j left, through one swap state per search. The logistic model and
the autoencoder scorer answer from two encodings patched per feature, and
score all of an iteration's rows in one call to their row scorer; these
tests hold them to the per-hybrid path and to a one-vector reference, in
float hex, the row scorers to that reference on every row of a batch, and
the encodings to a reference encoder. The kNN model answers
from distances updated per feature and re-summed near the k-th; it is held
to ``score_batch`` and to a brute-force vote, in float hex.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

import nicecf.tabular
from nicecf.distance import heom_feature, heom_to_rows
from nicecf.explainers import RewardKind, SearchContext, explain_nice, explain_sedc
from nicecf.errors import ConfigError, EncodeError
from nicecf.model import (
    ClassifierHandle,
    LogisticHandle,
    _KnnSwaps,
    _schema_sum,
    train_knn_classifier,
    train_logistic,
)
from nicecf.plausibility import (
    AEConfig,
    AEModel,
    _row_errors,
    ae_error,
    ae_scorer,
    swap_state,
    train_autoencoder,
)
from nicecf.synthetic import make_dataset
from nicecf.tabular import (
    Dataset,
    EncodedSwaps,
    FeatureKind,
    FeatureSpec,
    _aligned_rows,
    _EncodingPlan,
    encode,
    encode_batch,
    fit_stats,
    swap_hybrids,
)
from strategies import (
    FEW_NUMBERS,
    INTS_OR_FLOATS,
    WIDE_NUMBERS,
    knn_reference_score,
    mixed_tables,
    swap_problems,
)


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


def logistic_row_reference(model, v):
    """The score of one fresh copy of an encoded row: one dot product, then the logistic function.

    An overflow gives inf without a warning, as in the model; NaN stays NaN,
    where the model refuses to score the row.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z = float(np.dot(np.array(v), model.coef)) + model.intercept
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    return math.exp(z) / (1.0 + math.exp(z))


def logistic_reference(model, x):
    """:func:`logistic_row_reference` of one fresh encoding."""
    return logistic_row_reference(model, encode(model.stats, x))


def ae_row_reference(ae, v):
    """Reconstruction error of one fresh copy of an encoded row: one vector-matrix product a layer.

    An overflow gives inf without a warning, as in the scorer, and so does
    the NaN of infinite entries.
    """
    v = np.array(v)
    with np.errstate(over="ignore", invalid="ignore"):
        diff = (expit(v @ ae.w1 + ae.b1) @ ae.w2 + ae.b2) - v
        error = float(np.dot(diff, diff)) / ae.width
    return math.inf if math.isnan(error) else error


def ae_reference(ae, stats, x):
    """:func:`ae_row_reference` of one fresh encoding."""
    return ae_row_reference(ae, encode(stats, x))


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


# Entries that overwrite some of a batch's generic numbers: huge, infinite and zero.
SPECIAL_VALUES = (0.0, 1e300, -1e300, 1.7e308, -1.7e308, math.inf, -math.inf)


@st.composite
def row_batches(draw):
    """Statistics over numbers that encode as themselves, a logistic model, an AE and rows.

    Widths and hidden widths are odd and even; a batch holds 0, 1 or many
    rows. Weights and rows are generic numbers from a seeded generator, whose
    products round in their last bits, and some row entries are then set to
    :data:`SPECIAL_VALUES`.
    """
    width = draw(st.integers(1, 7))
    hidden = draw(st.integers(1, 4))
    n = draw(st.one_of(st.sampled_from((0, 1)), st.integers(2, 9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Columns of 0 and 1: min 0 and range 1, so (v - 0.0) / 1.0 encodes v as v.
    schema = [FeatureSpec(f"f{j}", FeatureKind.NUMERICAL) for j in range(width)]
    stats = fit_stats(Dataset(schema, [(0.0,) * width, (1.0,) * width]))
    model = LogisticHandle(stats, rng.normal(size=width), rng.normal())
    ae = AEModel(rng.normal(size=(width, hidden)), rng.normal(size=hidden),
                 rng.normal(size=(hidden, width)), rng.normal(size=width))
    rows = rng.normal(scale=10.0, size=(n, width))
    if n:
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, width - 1),
                          st.sampled_from(SPECIAL_VALUES))
        for i, j, value in draw(st.lists(cells, max_size=3)):
            rows[i, j] = value
    return stats, model, ae, rows


class TestRowScorers:
    """Each built-in row scorer scores every row of a stacked batch as that row alone."""

    @settings(max_examples=200, deadline=None)
    @given(row_batches())
    def test_every_row_matches_the_reference(self, problem):
        stats, model, ae, rows = problem
        batch = _aligned_rows(*rows.shape)
        batch[:] = rows
        expected = [logistic_row_reference(model, v) for v in rows]
        errors = hexes(ae_row_reference(ae, v) for v in rows)
        assert hexes(_row_errors(ae, batch)) == errors
        if any(math.isnan(p) for p in expected):
            with pytest.raises(EncodeError):
                model._score_rows(batch)
        else:
            assert hexes(model._score_rows(batch)) == hexes(expected)
        # A finite row is an instance that encodes as itself: scored alone it
        # has the bits it has at its place in the batch, odd places included.
        finite = [i for i, v in enumerate(rows) if np.isfinite(v).all()]
        xs = [tuple(rows[i].tolist()) for i in finite]
        assert [errors[i] for i in finite] == hexes(ae_error(ae, stats, x) for x in xs)
        if not any(math.isnan(expected[i]) for i in finite):
            assert hexes(model.score_batch(xs)) == hexes(expected[i] for i in finite)
            assert hexes(model.score(x) for x in xs) == hexes(expected[i] for i in finite)

    def test_the_width_must_match_the_autoencoder(self):
        ae = AEModel(np.zeros((3, 2)), np.zeros(2), np.zeros((2, 3)), np.zeros(3))
        with pytest.raises(ConfigError, match="encode to width 4, autoencoder expects 3"):
            _row_errors(ae, _aligned_rows(2, 4))


@st.composite
def knn_searches(draw, numbers=None):
    """A kNN search: (numbers, table, current, target, k, listed features, takes).

    The labeled table and ``current`` come from ``mixed_tables`` over
    ``numbers``, drawn from ``FEW_NUMBERS`` and ``WIDE_NUMBERS`` when not
    given; ``target`` is a table row. The features to score and the features
    taken may skip, repeat or reorder positions.
    """
    if numbers is None:
        numbers = draw(st.sampled_from((FEW_NUMBERS, WIDE_NUMBERS)))
    table, current = draw(mixed_tables(max_rows=12, numbers=numbers))
    n, m = len(table), len(current)
    table = Dataset(table.schema, table.rows,
                    draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    k = draw(st.sampled_from([k for k in (1, 3, 5) if k <= n]))
    target = draw(st.sampled_from(table.rows))
    features = draw(st.lists(st.integers(0, m - 1), max_size=2 * m))
    takes = draw(st.lists(st.integers(0, m - 1), max_size=2 * m))
    return numbers, table, current, target, k, features, takes


def exact_terms(stats, x, table):
    """Each training row's distance terms from ``x``, by ``heom_feature``, as exact fractions."""
    return [[Fraction(heom_feature(s, v, w)) for s, v, w in zip(stats, x, row)]
            for row in table.rows]


class TestKnnSwaps:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_every_score_matches_the_reference_through_a_search(self, data):
        numbers, table, current, target, k, features, takes = data.draw(knn_searches())
        m = len(current)
        stats = fit_stats(table)
        model = train_knn_classifier(stats, table, k)
        state = model.swap_state(current, target)
        if numbers is FEW_NUMBERS:  # every distance term is at most 4
            assert isinstance(state, _KnnSwaps)
        current = list(current)
        for j in [None, *takes]:
            if j is not None:
                state.take(j)
                current[j] = target[j]
            assert list(state.scores([])) == []
            for listed in (features, range(m)):
                hybrids = swap_hybrids(current, target, listed)
                swapped = hexes(state.scores(listed))
                assert swapped == hexes(model.score_batch(hybrids))
                assert swapped == hexes(knn_reference_score(stats, h, table, k) for h in hybrids)

    @settings(max_examples=150, deadline=None)
    @given(knn_searches(WIDE_NUMBERS))
    def test_the_updated_distances_keep_within_the_proven_bound(self, search):
        # The docstring's bounds, in exact arithmetic: ``reach`` is at least
        # M, the largest real distance the search can meet, and after any
        # takes ``d`` is within (3 n - 1) u M of the current row's real
        # distances. Every score also matches the references.
        _, table, current, target, k, features, takes = search
        n = len(current)
        stats = fit_stats(table)
        model = train_knn_classifier(stats, table, k)
        state = model.swap_state(current, target)
        fast = isinstance(state, _KnnSwaps)  # else some term is infinite or too large
        if fast:
            reachable = (sum(map(max, a, b)) for a, b in zip(
                exact_terms(stats, current, table), exact_terms(stats, target, table)))
            assert Fraction(state.reach) >= max(reachable)
            bound = (3 * n - 1) * Fraction(np.finfo(np.float64).eps) / 2 * Fraction(state.reach)
        current = list(current)
        for j in [None, *takes]:
            if j is not None:
                state.take(j)
                current[j] = target[j]
            if fast:
                real = [sum(terms) for terms in exact_terms(stats, current, table)]
                assert all(abs(Fraction(d) - r) <= bound for d, r in zip(state._d, real))
            for listed in (features, range(n)):
                hybrids = swap_hybrids(current, target, listed)
                swapped = hexes(state.scores(listed))
                assert swapped == hexes(model.score_batch(hybrids))
                assert swapped == hexes(knn_reference_score(stats, h, table, k) for h in hybrids)

    @pytest.mark.parametrize("columns", [1, 2, 7, 8, 9, 150, 5000])
    def test_the_column_sums_add_the_rows_in_schema_order(self, columns):
        # The searches above draw at most 13 training rows; the state also
        # sums thousands of columns, where a pairwise sum would differ.
        rng = np.random.default_rng(columns)
        for features in (1, 2, 3, 20, 40):
            terms = rng.random((features, columns)) * 10.0 ** rng.integers(-8, 8, (features, columns))
            total = np.zeros(columns)
            for row in terms:
                total += row
            assert _schema_sum(terms).tobytes() == total.tobytes()

    def test_an_exact_tie_that_the_updated_distance_splits_goes_to_the_smaller_row(self):
        # Found by a search over small tables. The hybrids taking feature 0 or 1
        # lie at exactly equal distances from rows 0 (label 0) and 1 (label 1),
        # so row 0 is the nearest, but the updated distance d + step puts row 1
        # an ulp nearer. A zero error bound, ranking the kept rows by the
        # updated distance, or ties going to the larger row index would each
        # vote 1 for them.
        schema = [FeatureSpec(f"f{j}", FeatureKind.NUMERICAL) for j in range(3)]
        table = Dataset(schema, [(0.9, 0.7, 0.1), (0.9, 0.9, 0.2)], [0, 1])
        stats = fit_stats(table)
        current, target = (0.7, 0.2, 0.7), table.rows[0]
        d = heom_to_rows(stats, current, table)
        for j in (0, 1):
            exact = heom_to_rows(stats, swap_hybrids(current, target, [j])[0], table)
            updated = d + [heom_feature(stats[j], target[j], row[j])
                           - heom_feature(stats[j], current[j], row[j]) for row in table.rows]
            assert exact[0] == exact[1] and updated[1] < updated[0]
        model = train_knn_classifier(stats, table, 1)
        state = model.swap_state(current, target)
        assert isinstance(state, _KnnSwaps)
        assert state.scores([0, 1, 2]) == [0.0, 0.0, 0.0]
        current = list(current)
        for j in (2, 0, 1):
            state.take(j)
            current[j] = target[j]
            hybrids = swap_hybrids(current, target, range(3))
            assert hexes(state.scores(range(3))) == hexes(model.score_batch(hybrids)) == hexes(
                knn_reference_score(stats, h, table, 1) for h in hybrids)


# 1.0 over a training range of 1e-234 encodes as 1e234, whose square overflows.
TINY_RANGE = (
    Dataset([FeatureSpec("f0", FeatureKind.NUMERICAL), FeatureSpec("f1", FeatureKind.CATEGORICAL),
             FeatureSpec("f2", FeatureKind.NUMERICAL)],
            [(0.0, "a", 0.0), (0.0, "b", 1e-234), (1.0, "a", 1e-234)], [0, 1, 1]),
    (0.0, "a", 1.0), (0.0, "a", 0.0), [0],
)


@settings(max_examples=100, deadline=None)
@given(swap_problems())
@example(TINY_RANGE)
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
@given(st.sampled_from((INTS_OR_FLOATS, FEW_NUMBERS)).flatmap(
    lambda numbers: swap_problems(numbers=numbers)))
def test_search_takes_the_same_steps_on_the_default_path(problem):
    table, x0, _, _ = problem
    stats, logistic, ae = fitted(table)
    knn = train_knn_classifier(stats, table, 1 if len(table) < 3 else 3)

    def run(ctx, kind):
        if kind is None:
            return explain_sedc(x0, ctx)
        return explain_nice(x0, kind, ctx)

    def key(result):
        steps = [(s.feature, float(s.reward).hex(), float(s.score).hex()) for s in result.trace]
        return result.counterfactual, result.valid, result.anchor_index, steps

    for model in (logistic, knn):
        fast = SearchContext(table, stats, model, scorer=ae_scorer(ae, stats))
        default = ScoreBatchOnly(model)
        slow = SearchContext(table, stats, default, scorer=lambda x: ae_error(ae, stats, x))
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
