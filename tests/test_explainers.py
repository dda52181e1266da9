import math
import sys
import threading
import time
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings

import nicecf.explainers
from nicecf.distance import heom, nearest_unlike_neighbor
from nicecf.errors import ConfigError, DistanceError, EncodeError, NoUnlikeNeighborError
from nicecf.explainers import (
    Explanation,
    RewardKind,
    SearchContext,
    explain_cbr,
    explain_nice,
    explain_sedc,
    explain_wit,
    explanation_to_dict,
    reward,
)
from nicecf.model import ClassifierHandle, train_knn_classifier, train_logistic
from nicecf.synthetic import make_dataset
from nicecf.tabular import Dataset, FeatureKind, FeatureSpec, fit_stats
from strategies import mixed_tables

OPTIMIZED = (RewardKind.SPARSITY, RewardKind.PROXIMITY, RewardKind.PLAUSIBILITY)


def cat_schema(n):
    return [FeatureSpec(f"f{j}", FeatureKind.CATEGORICAL) for j in range(n)]


def num_schema(n):
    return [FeatureSpec(f"f{j}", FeatureKind.NUMERICAL) for j in range(n)]


class TestReward:
    def make_ctx(self, scripted_model_cls, schema, rows, table, scorer=None):
        train = Dataset(schema, rows)
        stats = fit_stats(train)
        return SearchContext(train, stats, scripted_model_cls(table), scorer=scorer)

    def test_sparsity_value(self, scripted_model_cls):
        ctx = self.make_ctx(
            scripted_model_cls, cat_schema(1), [("a",), ("b",)],
            {("a",): 0.8, ("b",): 0.55},
        )
        # signed scores 0.6 and 0.1, so the drop is 0.5
        assert reward(RewardKind.SPARSITY, ("a",), ("b",), ctx, 1) == pytest.approx(0.5)

    def test_proximity_value(self, scripted_model_cls):
        ctx = self.make_ctx(
            scripted_model_cls, num_schema(1), [(0.0,), (4.0,)],
            {(0.0,): 0.8, (1.0,): 0.55},
        )
        # same 0.5 drop over a distance step of 1/4
        assert reward(RewardKind.PROXIMITY, (0.0,), (1.0,), ctx, 1) == pytest.approx(2.0)

    def test_proximity_zero_range_costs_full_step(self, scripted_model_cls):
        # zero training range degenerates to overlap distance 1, not epsilon
        ctx = self.make_ctx(
            scripted_model_cls, num_schema(1), [(1.0,), (1.0,)],
            {(1.0,): 0.8, (2.0,): 0.55},
        )
        assert reward(RewardKind.PROXIMITY, (1.0,), (2.0,), ctx, 1) == pytest.approx(0.5)

    def test_proximity_epsilon_guards_underflowed_step(self, scripted_model_cls):
        # 1e-320 / 1e10 underflows to exactly 0, so the guard divides by 1e-9
        ctx = self.make_ctx(
            scripted_model_cls, num_schema(1), [(0.0,), (1e10,)],
            {(0.0,): 0.8, (1e-320,): 0.55},
        )
        r = reward(RewardKind.PROXIMITY, (0.0,), (1e-320,), ctx, 1)
        assert r == pytest.approx(0.5 / 1e-9, rel=1e-12)

    def test_plausibility_value(self, scripted_model_cls):
        errors = {("a",): 0.03, ("b",): 0.01}
        ctx = self.make_ctx(
            scripted_model_cls, cat_schema(1), [("a",), ("b",)],
            {("a",): 0.8, ("b",): 0.55},
            scorer=lambda x: errors[tuple(x)],
        )
        assert reward(
            RewardKind.PLAUSIBILITY, ("a",), ("b",), ctx, 1
        ) == pytest.approx(0.01)

    def test_sign_convention_for_class_zero(self, scripted_model_cls):
        # Source predicted class 0: an increase of the signed score is good.
        ctx = self.make_ctx(
            scripted_model_cls, cat_schema(1), [("a",), ("b",)],
            {("a",): 0.2, ("b",): 0.45},
        )
        assert reward(RewardKind.SPARSITY, ("a",), ("b",), ctx, -1) == pytest.approx(0.5)

    def test_requires_exactly_one_differing_feature(self, scripted_model_cls):
        ctx = self.make_ctx(
            scripted_model_cls, cat_schema(2), [("a", "a"), ("b", "b")],
            {}, scorer=None,
        )
        with pytest.raises(ConfigError):
            reward(RewardKind.SPARSITY, ("a", "a"), ("b", "b"), ctx, 1)
        with pytest.raises(ConfigError):
            reward(RewardKind.SPARSITY, ("a", "a"), ("a", "a"), ctx, 1)

    def test_plausibility_needs_scorer(self, scripted_model_cls):
        ctx = self.make_ctx(
            scripted_model_cls, cat_schema(1), [("a",), ("b",)],
            {("a",): 0.8, ("b",): 0.55},
        )
        with pytest.raises(ConfigError):
            reward(RewardKind.PLAUSIBILITY, ("a",), ("b",), ctx, 1)

    def test_kind_none_rejected(self, scripted_model_cls):
        ctx = self.make_ctx(
            scripted_model_cls, cat_schema(1), [("a",), ("b",)],
            {("a",): 0.8, ("b",): 0.55},
        )
        with pytest.raises(ConfigError):
            reward(RewardKind.NONE, ("a",), ("b",), ctx, 1)

    def test_bad_y_hat(self, scripted_model_cls):
        ctx = self.make_ctx(
            scripted_model_cls, cat_schema(1), [("a",), ("b",)],
            {("a",): 0.8, ("b",): 0.55},
        )
        with pytest.raises(ConfigError):
            reward(RewardKind.SPARSITY, ("a",), ("b",), ctx, 0)


class TestSearchWalkthrough:
    """Scripted 6-feature search: two iterations, second one flips."""

    X0 = ("a", "a", "a", "a", "a", "a")
    XNN = ("a", "b", "b", "a", "b", "a")  # differs at features 1, 2, 4

    def make_ctx(self, scripted_model_cls):
        other = ("a", "a", "a", "a", "a", "b")
        train = Dataset(cat_schema(6), [self.XNN, other], labels=[0, 1])
        stats = fit_stats(train)
        table = {
            self.X0: 0.9,
            self.XNN: 0.2,
            other: 0.95,
            # iteration 1 candidates (copy one of features 1, 2, 4)
            ("a", "b", "a", "a", "a", "a"): 0.85,
            ("a", "a", "b", "a", "a", "a"): 0.8,
            ("a", "a", "a", "a", "b", "a"): 0.6,
            # iteration 2 candidates (feature 4 already copied)
            ("a", "b", "a", "a", "b", "a"): 0.55,
            ("a", "a", "b", "a", "b", "a"): 0.3,
        }
        return SearchContext(train, stats, scripted_model_cls(table))

    def test_two_iteration_walk(self, scripted_model_cls):
        ctx = self.make_ctx(scripted_model_cls)
        expl = explain_nice(self.X0, RewardKind.SPARSITY, ctx)
        assert expl.valid
        # iteration 1 picks the third candidate (feature 4) without flipping,
        # iteration 2 picks feature 2 and flips
        assert [s.feature for s in expl.trace] == [4, 2]
        assert expl.changed_features == {2, 4}
        assert expl.counterfactual == ("a", "a", "b", "a", "b", "a")
        assert expl.anchor == self.XNN
        assert expl.trace[0].score == pytest.approx(0.2)   # 2*0.6 - 1
        assert expl.trace[1].score == pytest.approx(-0.4)  # 2*0.3 - 1

    def test_proximity_same_walk_on_unit_steps(self, scripted_model_cls):
        # All categorical steps cost 1, so the proximity walk matches.
        ctx = self.make_ctx(scripted_model_cls)
        expl = explain_nice(self.X0, RewardKind.PROXIMITY, ctx)
        assert [s.feature for s in expl.trace] == [4, 2]

    def test_each_pick_matches_reward_recomputation(self, scripted_model_cls):
        ctx = self.make_ctx(scripted_model_cls)
        expl = explain_nice(self.X0, RewardKind.SPARSITY, ctx)
        state = list(self.X0)
        for step in expl.trace:
            remaining = [j for j in range(6) if state[j] != self.XNN[j]]
            rewards = {}
            for j in remaining:
                cand = list(state)
                cand[j] = self.XNN[j]
                rewards[j] = reward(RewardKind.SPARSITY, tuple(state), tuple(cand), ctx, 1)
            best = max(rewards.values())
            winners = [j for j in remaining if rewards[j] == best]
            assert step.feature == min(winners)
            assert step.reward == rewards[step.feature]
            state[step.feature] = self.XNN[step.feature]
        assert tuple(state) == expl.counterfactual


class TestNiceGeneral:
    def test_kind_none_returns_anchor(self, scripted_model_cls):
        train = Dataset(cat_schema(2), [("b", "b"), ("a", "b")], labels=[0, 1])
        stats = fit_stats(train)
        model = scripted_model_cls({("a", "a"): 0.9, ("b", "b"): 0.1, ("a", "b"): 0.8})
        ctx = SearchContext(train, stats, model)
        expl = explain_nice(("a", "a"), RewardKind.NONE, ctx)
        assert expl.valid
        assert expl.counterfactual == ("b", "b")
        assert expl.trace == ()
        assert expl.anchor_index == 0

    def test_single_difference_resolves_in_one_iteration(self, scripted_model_cls):
        train = Dataset(cat_schema(2), [("a", "b"), ("a", "a")], labels=[0, 1])
        stats = fit_stats(train)
        model = scripted_model_cls({("a", "a"): 0.9, ("a", "b"): 0.2})
        for kind in (RewardKind.NONE, RewardKind.SPARSITY, RewardKind.PROXIMITY,
                     RewardKind.PLAUSIBILITY):
            ctx = SearchContext(train, stats, model, scorer=lambda x: 1.0)
            expl = explain_nice(("a", "a"), kind, ctx)
            assert expl.valid
            assert expl.counterfactual == ("a", "b")
            assert expl.sparsity == 1
            if kind is not RewardKind.NONE:
                assert len(expl.trace) == 1

    def test_no_unlike_neighbor_is_an_invalid_explanation(self, scripted_model_cls):
        train = Dataset(cat_schema(1), [("a",), ("b",)], labels=[1, 1])
        stats = fit_stats(train)
        model = scripted_model_cls({}, default=0.9)
        ctx = SearchContext(train, stats, model)
        with pytest.raises(NoUnlikeNeighborError):
            nearest_unlike_neighbor(stats, ("a",), train, ctx.train_predictions(), 1)
        expl = explain_nice(("a",), RewardKind.SPARSITY, ctx)
        assert (expl.valid, expl.counterfactual, expl.anchor_index, expl.trace) == (
            False, ("a",), None, ())

    def test_plausibility_without_scorer_rejected(self, scripted_model_cls):
        train = Dataset(cat_schema(1), [("a",), ("b",)], labels=[0, 1])
        stats = fit_stats(train)
        ctx = SearchContext(train, stats, scripted_model_cls({}, default=0.9))
        with pytest.raises(ConfigError):
            explain_nice(("a",), RewardKind.PLAUSIBILITY, ctx)

    def test_nan_reward_loses_to_any_number(self, scripted_model_cls):
        # The scorer's inf at the source and at every candidate with a > 1
        # makes those candidates' plausibility rewards inf - inf = nan.
        schema = [FeatureSpec("c", FeatureKind.CATEGORICAL),
                  FeatureSpec("a", FeatureKind.NUMERICAL), FeatureSpec("b", FeatureKind.NUMERICAL)]
        train = Dataset(schema, [("x", 0.0, 0.0), ("y", 1.0, 1.0)], labels=[0, 1])
        x0 = ("x", 1000.0, 0.0)
        model = scripted_model_cls(
            {("x", 0.0, 0.0): 0.1, ("y", 1.0, 1.0): 0.9, x0: 0.1}, default=0.3)
        scorer = lambda x: math.inf if x[1] > 1 else 0.0
        ctx = SearchContext(train, fit_stats(train), model, scorer=scorer)
        expl = explain_nice(x0, RewardKind.PLAUSIBILITY, ctx)
        # Iteration 1 rewards are [nan, inf, nan]; iteration 2 ties at 0.0.
        assert [(s.feature, s.reward) for s in expl.trace] == [(1, math.inf), (0, 0.0), (2, 0.0)]
        assert expl.valid

    def test_nan_reward_loses_to_minus_infinity(self, scripted_model_cls):
        # Iteration 1 rewards are [-0.0 * -inf, 0.4 * -inf] = [nan, -inf]; ranking
        # NaN as -inf would pick feature 0 first. Iteration 2's reward is inf - inf.
        train = Dataset(cat_schema(2), [("x", "x"), ("y", "y")], labels=[0, 1])
        model = scripted_model_cls({("x", "x"): 0.2, ("y", "y"): 0.9,
                                    ("y", "x"): 0.2, ("x", "y"): 0.4})
        scorer = lambda x: 0.0 if x == ("x", "x") else math.inf
        ctx = SearchContext(train, fit_stats(train), model, scorer=scorer)
        expl = explain_nice(("x", "x"), RewardKind.PLAUSIBILITY, ctx)
        assert [s.feature for s in expl.trace] == [1, 0]
        assert expl.trace[0].reward == -math.inf
        assert math.isnan(expl.trace[1].reward)
        assert expl.valid

    def test_all_nan_rewards_tie_to_the_smallest_feature(self, scripted_model_cls):
        train = Dataset(num_schema(2), [(0.0, 0.0), (1.0, 1.0)], labels=[0, 1])
        model = scripted_model_cls({(0.0, 0.0): 0.1, (1.0, 1.0): 0.9}, default=0.3)
        ctx = SearchContext(train, fit_stats(train), model, scorer=lambda x: math.inf)
        expl = explain_nice((0.0, 0.0), RewardKind.PLAUSIBILITY, ctx)
        assert [s.feature for s in expl.trace] == [0, 1]
        assert all(math.isnan(s.reward) for s in expl.trace)

    def test_scorer_substitutability(self, mixed_dataset):
        stats = fit_stats(mixed_dataset)
        model = train_logistic(stats, mixed_dataset)
        crc = lambda x: zlib.crc32(repr(tuple(x)).encode()) / 2**32
        for scorer in (lambda x: 1.0, crc):
            ctx = SearchContext(mixed_dataset, stats, model, scorer=scorer)
            for x0 in mixed_dataset.rows[:10]:
                expl = explain_nice(x0, RewardKind.PLAUSIBILITY, ctx)
                assert expl.valid


class CountingModel(ClassifierHandle):
    """Wraps a model and counts the scored rows equal to ``watched``."""

    def __init__(self, inner, watched):
        self.inner = inner
        self.watched = tuple(watched)
        self.count = 0

    def score_batch(self, xs):
        self.count += sum(1 for x in xs if tuple(x) == self.watched)
        return self.inner.score_batch(xs)


ALL_EXPLAINERS = {
    **{f"nice-{kind.value}": lambda x0, ctx, kind=kind: explain_nice(x0, kind, ctx)
       for kind in RewardKind},
    "wit": explain_wit,
    "sedc": explain_sedc,
    "cbr": explain_cbr,
}


def one_flip_context(scripted_model_cls, p0):
    """A context over four rows, one of class 1, whose model scores ("a", "a", "a") at ``p0``.

    The source's anchor, mean/mode instance and cbr pairs all lie one or two
    features away, and every explainer flips a source of class 1. The model
    counts how often it scores the source.
    """
    x0 = ("a", "a", "a")
    flipped = ("c", "a", "a")  # the only class-1 row; it makes two cbr pairs
    train = Dataset(cat_schema(3), [("b", "b", "a"), ("b", "a", "b"), ("a", "b", "b"), flipped],
                    labels=[0, 0, 0, 1])
    model = CountingModel(scripted_model_cls({x0: p0, flipped: 0.9}, default=0.2), x0)
    ctx = SearchContext(train, fit_stats(train), model, scorer=lambda x: 1.0)
    ctx.warm()
    return x0, ctx


@pytest.mark.parametrize("explain", ALL_EXPLAINERS.values(), ids=ALL_EXPLAINERS)
def test_source_scored_once(scripted_model_cls, explain):
    x0, ctx = one_flip_context(scripted_model_cls, 0.9)
    expl = explain(x0, ctx)
    assert expl.valid
    assert ctx.model.count == 1


@pytest.mark.parametrize("explain", ALL_EXPLAINERS.values(), ids=ALL_EXPLAINERS)
def test_source_scored_one_half_is_class_one(scripted_model_cls, explain):
    # Every explainer classifies its source as the handle's predict does.
    x0, ctx = one_flip_context(scripted_model_cls, 0.5)
    assert ctx.model.predict(x0) == 1
    expl = explain(x0, ctx)
    assert expl.valid
    assert ctx.model.predict(expl.counterfactual) == 0


@pytest.mark.parametrize("explainer_id", ALL_EXPLAINERS)
def test_no_eligible_row_is_an_invalid_explanation(scripted_model_cls, explainer_id):
    # Every row is predicted as the source's class, and row 0 is misclassified:
    # no row can be an anchor, a wit row or half of a case-base pair.
    train = Dataset(cat_schema(1), [("a",), ("b",)], labels=[0, 1])
    ctx = SearchContext(train, fit_stats(train), scripted_model_cls({}, default=0.9),
                        scorer=lambda x: 1.0)
    expl = ALL_EXPLAINERS[explainer_id](("a",), ctx)
    assert isinstance(expl, Explanation)
    assert (expl.explainer_id, expl.source, expl.valid) == (explainer_id, ("a",), False)
    if explainer_id.startswith("nice-") or explainer_id == "wit":
        assert (expl.counterfactual, expl.changed_features, expl.trace, expl.anchor,
                expl.anchor_index) == (("a",), frozenset(), (), None, None)


class SourceCounter(ClassifierHandle):
    """Wraps a model and counts, under a lock, how often it scores the objects ``sources`` themselves.

    Rows are told apart by identity, not by value, since a hybrid of one
    source may equal another. The default swap state is kept, so every row
    a greedy search scores passes through ``score_batch`` too.
    """

    def __init__(self, inner, sources):
        self.inner = inner
        self.sources = {id(x): x for x in sources}
        self.count = 0
        self.lock = threading.Lock()

    def score_batch(self, xs):
        with self.lock:
            self.count += sum(1 for x in xs if self.sources.get(id(x)) is x)
        return self.inner.score_batch(xs)


class FlipOne(ClassifierHandle):
    """A model's scores, except that the object ``flipped`` itself scores ``1 - p``."""

    def __init__(self, inner, flipped):
        self.inner = inner
        self.flipped = flipped

    def score_batch(self, xs):
        scores = self.inner.score_batch(xs)
        return np.array([1.0 - p if x is self.flipped else p for x, p in zip(xs, scores)])


def held_out(data, n_train=120):
    """A training set of the first ``n_train`` rows, the other rows as sources, and statistics."""
    train = Dataset(data.schema, data.rows[:n_train], labels=data.labels[:n_train])
    return train, list(data.rows[n_train:]), fit_stats(train)


def outcome(expl):
    """What an explanation says, floats in hex."""
    return (expl.explainer_id, expl.source, expl.counterfactual, expl.valid, expl.anchor_index,
            tuple((s.feature, s.reward.hex(), s.score.hex()) for s in expl.trace))


def fresh(x0, eid, train, stats, model, weights=None):
    """The outcome of ``eid`` on ``x0`` in a context of its own, where nothing can be reused."""
    return outcome(ALL_EXPLAINERS[eid](x0, SearchContext(train, stats, model, weights, hash_scorer)))


def test_record_scores_and_scans_each_source_once(quantized_dataset, monkeypatch):
    # All seven explainers, source after source, on one context: one score of
    # each source, one nearest-unlike-neighbour scan for the four nice-* ones.
    train, sources, stats = held_out(quantized_dataset)
    sources = sources[:6]
    model = SourceCounter(train_logistic(stats, train), sources)
    expected = [fresh(x0, eid, train, stats, model.inner) for x0 in sources for eid in ALL_EXPLAINERS]
    scans = []
    scan = nicecf.explainers.nearest_unlike_neighbor
    monkeypatch.setattr(nicecf.explainers, "nearest_unlike_neighbor",
                        lambda *args: scans.append(args[1]) or scan(*args))
    ctx = SearchContext(train, stats, model, scorer=hash_scorer)
    got = [outcome(explain(x0, ctx)) for x0 in sources for explain in ALL_EXPLAINERS.values()]
    assert got == expected
    assert model.count == len(sources)
    assert scans == sources


@pytest.mark.parametrize("replaced", ["model", "weights"])
def test_record_follows_a_replaced_model_or_weights(quantized_dataset, replaced):
    train, sources, stats = held_out(quantized_dataset)
    model = train_logistic(stats, train)
    weights = (9.0, 1.0, 1.0, 1.0, 1.0)
    if replaced == "model":
        x0 = sources[0]
        new_model, new_weights = FlipOne(model, x0), None
    else:
        # A source whose anchor moves under the new weights.
        x0 = next(x for x in sources if fresh(x, "nice-none", train, stats, model)
                  != fresh(x, "nice-none", train, stats, model, weights))
        new_model, new_weights = model, weights
    ctx = SearchContext(train, stats, model, scorer=hash_scorer)
    before = [outcome(explain(x0, ctx)) for explain in ALL_EXPLAINERS.values()]
    ctx.model, ctx.weights = new_model, ctx.weights if new_weights is None else new_weights
    after = [outcome(explain(x0, ctx)) for explain in ALL_EXPLAINERS.values()]
    assert after == [fresh(x0, eid, train, stats, new_model, new_weights) for eid in ALL_EXPLAINERS]
    assert after[0] != before[0]


def test_record_is_not_reused_for_a_mutated_list(quantized_dataset):
    train, sources, stats = held_out(quantized_dataset)
    model = train_logistic(stats, train)
    a = sources[0]
    b = next(x for x in sources if model.predict(x) != model.predict(a))
    ctx = SearchContext(train, stats, model, scorer=hash_scorer)
    x0 = list(a)
    for eid, explain in ALL_EXPLAINERS.items():
        assert outcome(explain(x0, ctx)) == fresh(tuple(x0), eid, train, stats, model)
        x0[:] = b if tuple(x0) == a else a


class Complement(ClassifierHandle):
    """A model's scores turned around: ``1 - p``."""

    def __init__(self, inner):
        self.inner = inner

    def score_batch(self, xs):
        return 1.0 - self.inner.score_batch(xs)


def test_context_caches_follow_a_replaced_model(quantized_dataset):
    # The training-set predictions and the case base were built for the first
    # model; after it is replaced, the explainers that read them must see the new one.
    train, sources, stats = held_out(quantized_dataset)
    ctx = SearchContext(train, stats, train_logistic(stats, train), scorer=hash_scorer)
    ctx.warm(include_case_base=True)
    ctx.model = Complement(ctx.model)
    x0 = quantized_dataset.rows[130]
    for eid in ("nice-none", "wit", "cbr"):
        assert outcome(ALL_EXPLAINERS[eid](x0, ctx)) == fresh(x0, eid, train, stats, ctx.model), eid


class SlowSource(ClassifierHandle):
    """A model that takes at least ``seconds`` longer to score a row equal to ``x0``."""

    def __init__(self, inner, x0, seconds):
        self.inner, self.x0, self.seconds = inner, tuple(x0), seconds

    def score_batch(self, xs):
        if any(tuple(x) == self.x0 for x in xs):
            time.sleep(self.seconds)
        return self.inner.score_batch(xs)


def test_reused_score_and_scan_count_in_every_explainers_time(quantized_dataset, monkeypatch):
    # The source's score and its neighbour scan each take at least 20 ms and
    # are done once per order. In either order every explainer's time holds
    # the score, and every nice-* one's the scan as well.
    train, sources, stats = held_out(quantized_dataset)
    slow = 0.02
    scan = nicecf.explainers.nearest_unlike_neighbor
    monkeypatch.setattr(nicecf.explainers, "nearest_unlike_neighbor",
                        lambda *args: time.sleep(slow) or scan(*args))
    ctx = SearchContext(train, stats, SlowSource(train_logistic(stats, train), sources[0], slow),
                        scorer=hash_scorer)
    ctx.warm(include_case_base=True)
    for order in (list(ALL_EXPLAINERS), list(reversed(ALL_EXPLAINERS))):
        x0 = tuple(list(sources[0]))  # a new tuple, so the last order's record is not reused
        for eid in order:
            floor = 2 * slow if eid.startswith("nice-") else slow
            assert ALL_EXPLAINERS[eid](x0, ctx).elapsed_ms >= floor * 1000.0 * 0.99, eid


def test_threads_keep_records_of_their_own(quantized_dataset):
    # Four threads on one context, in lockstep: every thread finishes one
    # explainer before any starts the next, and neighbouring threads explain
    # different sources. Each must give the serial results, and score each
    # source once per visit.
    train, sources, stats = held_out(quantized_dataset)
    pair = sources[:2]
    model = SourceCounter(train_logistic(stats, train), pair)
    expected = {(i, eid): fresh(x0, eid, train, stats, model.inner)
                for i, x0 in enumerate(pair) for eid in ALL_EXPLAINERS}
    ctx = SearchContext(train, stats, model, scorer=hash_scorer)
    ctx.warm(include_case_base=True)
    n_threads, visits = 4, 3
    barrier = threading.Barrier(n_threads, timeout=30)
    got = [[] for _ in range(n_threads)]

    def work(t):
        for k in range(visits):
            i = (k + t) % 2
            for eid, explain in ALL_EXPLAINERS.items():
                got[t].append(((i, eid), outcome(explain(pair[i], ctx))))
                barrier.wait()

    threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for t, results in enumerate(got):
        assert [key for key, _ in results] == [
            ((k + t) % 2, eid) for k in range(visits) for eid in ALL_EXPLAINERS]
        assert all(out == expected[key] for key, out in results)
    assert model.count == n_threads * visits


def value_hash(x, salt=b""):
    """A number in [0, 1) that depends only on the row's values as ``==`` sees them.

    Adding 0.0 maps -0.0 to 0.0: the search compares values with ``==``, so
    a score must not tell the two apart.
    """
    values = tuple(v if isinstance(v, str) else v + 0.0 for v in x)
    return zlib.crc32(salt + repr(values).encode()) / 2**32


class HashModel(ClassifierHandle):
    """Deterministic but otherwise arbitrary scores."""

    def score_batch(self, xs):
        return np.array([value_hash(x) for x in xs])


def hash_scorer(x):
    return value_hash(x, b"ae")


def hash_context(table):
    """A context over ``table`` labelled by the hash model, so every row is correctly predicted."""
    model = HashModel()
    labelled = Dataset(table.schema, table.rows, labels=model.predict_batch(table.rows).tolist())
    return SearchContext(labelled, fit_stats(labelled), model, scorer=hash_scorer)


class TestRandomSchemas:
    """Invariants of the shared search and scan on random mixed schemas."""

    @settings(max_examples=100, deadline=None)
    @given(mixed_tables(min_rows=3))
    def test_nice_valid_and_hybrid(self, table_and_x):
        table, x0 = table_and_x
        ctx = hash_context(table)
        c0 = ctx.model.predict(x0)
        assume(any(int(p) != c0 for p in ctx.train_predictions()))
        for kind in RewardKind:
            expl = explain_nice(x0, kind, ctx)
            assert expl.valid
            assert ctx.model.predict(expl.counterfactual) != c0
            for j in expl.changed_features:
                assert expl.counterfactual[j] == expl.anchor[j]

    @settings(max_examples=100, deadline=None)
    @given(mixed_tables())
    def test_sedc_copies_mean_mode(self, table_and_x):
        table, x0 = table_and_x
        ctx = hash_context(table)
        expl = explain_sedc(x0, ctx)
        mean_mode = ctx.mean_mode_instance()
        for j in expl.changed_features:
            assert expl.counterfactual[j] == mean_mode[j]
        assert len(expl.trace) == len(expl.changed_features)
        assert expl.valid == (ctx.model.predict(expl.counterfactual) != ctx.model.predict(x0))

    @settings(max_examples=200, deadline=None)
    @given(mixed_tables())
    def test_wit_distances_match_scalar_per_std(self, table_and_x):
        table, x0 = table_and_x
        ctx = hash_context(table)
        vector = nicecf.explainers._wit_distances(ctx, x0)
        for i, row in enumerate(table.rows):
            total = 0.0
            for stat, w, a, b in zip(ctx.stats, ctx.weights, x0, row):
                if stat.kind is FeatureKind.CATEGORICAL or stat.std == 0.0:
                    term = 0.0 if a == b else 1.0
                else:
                    term = abs(float(a) - float(b)) / stat.std
                total += w * term
            assert float(vector[i]).hex() == total.hex()


class TestNiceProperties:
    """Structural guarantees on real data with a trained model."""

    @pytest.fixture()
    def ctx(self, mixed_dataset):
        stats = fit_stats(mixed_dataset)
        model = train_logistic(stats, mixed_dataset)
        return SearchContext(mixed_dataset, stats, model, scorer=lambda x: 1.0)

    def test_validity_hybridity_and_trace_shape(self, ctx, mixed_dataset):
        for x0 in mixed_dataset.rows[:25]:
            c0 = ctx.model.predict(x0)
            for kind in RewardKind:
                expl = explain_nice(x0, kind, ctx)
                assert expl.valid
                assert ctx.model.predict(expl.counterfactual) != c0
                for j, value in enumerate(expl.counterfactual):
                    assert value == x0[j] or value == expl.anchor[j]
                assert expl.changed_features == frozenset(
                    j for j in range(len(x0)) if expl.counterfactual[j] != x0[j]
                )
                if kind is RewardKind.NONE:
                    assert expl.trace == ()
                else:
                    assert len(expl.trace) == len(expl.changed_features)

    def test_dominance_over_plain_anchor(self, ctx, mixed_dataset):
        for x0 in mixed_dataset.rows[:25]:
            none = explain_nice(x0, RewardKind.NONE, ctx)
            spars = explain_nice(x0, RewardKind.SPARSITY, ctx)
            prox = explain_nice(x0, RewardKind.PROXIMITY, ctx)
            assert spars.sparsity <= none.sparsity
            d_prox = heom(ctx.stats, x0, prox.counterfactual)
            d_none = heom(ctx.stats, x0, none.counterfactual)
            assert d_prox <= d_none


def train_knn3(stats, data):
    return train_knn_classifier(stats, data, k=3)


@pytest.mark.parametrize("train", [train_logistic, train_knn3], ids=["logistic", "knn3"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("explain", [
    lambda x0, ctx: explain_nice(x0, RewardKind.NONE, ctx),
    lambda x0, ctx: explain_nice(x0, RewardKind.SPARSITY, ctx),
    explain_wit, explain_sedc, explain_cbr,
], ids=["nice-none", "nice-spars", "wit", "sedc", "cbr"])
def test_non_finite_source_rejected(quantized_dataset, train, bad, explain):
    stats = fit_stats(quantized_dataset)
    ctx = SearchContext(quantized_dataset, stats, train(stats, quantized_dataset))
    x0 = quantized_dataset.rows[0]
    for j in (0, 1):
        with pytest.raises(EncodeError, match=stats[j].name):
            explain(x0[:j] + (bad,) + x0[j + 1:], ctx)
    assert explain(x0, ctx).source == x0


# Each bad source breaks the schema's row rule in one way; quantized_dataset
# has numerical num0, num1 and categorical cat0..cat2 declared as a, b.
BAD_SOURCES = {
    "one-short": lambda x0: x0[:-1],
    "str-in-numerical": lambda x0: ("a",) + x0[1:],
    "bool-in-numerical": lambda x0: (True,) + x0[1:],
    "number-in-categorical": lambda x0: x0[:2] + (1.0,) + x0[3:],
    "undeclared-category": lambda x0: x0[:2] + ("z",) + x0[3:],
}


@pytest.mark.parametrize("train", [train_logistic, train_knn3], ids=["logistic", "knn3"])
@pytest.mark.parametrize("bad", list(BAD_SOURCES.values()), ids=list(BAD_SOURCES))
@pytest.mark.parametrize("explain", [
    lambda x0, ctx: explain_nice(x0, RewardKind.SPARSITY, ctx),
    explain_wit, explain_sedc, explain_cbr,
], ids=["nice-spars", "wit", "sedc", "cbr"])
def test_source_breaking_schema_rejected(quantized_dataset, train, bad, explain):
    stats = fit_stats(quantized_dataset)
    ctx = SearchContext(quantized_dataset, stats, train(stats, quantized_dataset))
    with pytest.raises(EncodeError):
        explain(bad(quantized_dataset.rows[0]), ctx)


class TestWit:
    def test_ignores_correctness_filter(self, scripted_model_cls):
        train = Dataset(
            num_schema(1), [(2.0,), (9.0,), (0.5,)], labels=[1, 0, 1]
        )
        stats = fit_stats(train)
        model = scripted_model_cls({(1.0,): 0.9, (2.0,): 0.3, (9.0,): 0.2, (0.5,): 0.8})
        ctx = SearchContext(train, stats, model)
        wit = explain_wit((1.0,), ctx)
        assert wit.anchor_index == 0  # nearest opposite prediction, mislabeled
        nice = explain_nice((1.0,), RewardKind.NONE, ctx)
        assert nice.anchor_index == 1  # correctness filter skips row 0
        assert wit.valid
        assert wit.counterfactual == (2.0,)

    def test_std_normalization_changes_selection(self, scripted_model_cls):
        rows = [
            (0.0, 0.0), (100.0, 10.0), (40.0, 0.0), (40.0, 10.0),
            (40.0, 0.0), (40.0, 10.0), (100.0, 0.0), (40.0, 8.5),
        ]
        labels = [1, 1, 1, 1, 1, 1, 0, 0]
        train = Dataset(num_schema(2), rows, labels=labels)
        stats = fit_stats(train)
        table = {
            (0.0, 0.0): 0.9, (100.0, 10.0): 0.8, (40.0, 0.0): 0.7,
            (40.0, 10.0): 0.6, (100.0, 0.0): 0.2, (40.0, 8.5): 0.3,
        }
        ctx = SearchContext(train, stats, scripted_model_cls(table))
        x0 = (40.0, 0.0)
        # Per-std scaling favors the small f2 step; per-range favors f1.
        assert explain_wit(x0, ctx).anchor_index == 7
        assert explain_nice(x0, RewardKind.NONE, ctx).anchor_index == 6

    def test_tiny_spread_is_scaled_as_a_number(self, scripted_model_cls):
        # std 5e-301: a step of 1e-300 is two stds, not a 0/1 mismatch.
        train = Dataset(num_schema(1), [(0.0,), (1e-300,), (1e-300,), (0.0,)], labels=[0, 1, 1, 0])
        ctx = SearchContext(train, fit_stats(train), scripted_model_cls({}, default=0.9))
        assert ctx.stats[0].std == 5e-301
        assert nicecf.explainers._wit_distances(ctx, (0.0,)).tolist() == [0.0, 2.0, 2.0, 0.0]

    def test_no_opposite_prediction(self, scripted_model_cls):
        train = Dataset(num_schema(1), [(1.0,)], labels=[1])
        stats = fit_stats(train)
        ctx = SearchContext(train, stats, scripted_model_cls({}, default=0.9))
        expl = explain_wit((2.0,), ctx)
        assert (expl.valid, expl.counterfactual, expl.anchor_index, expl.trace) == (
            False, (2.0,), None, ())


class TestSedc:
    def test_single_feature_from_mean_mode(self, scripted_model_cls):
        train = Dataset(
            [FeatureSpec("n", FeatureKind.NUMERICAL), FeatureSpec("c", FeatureKind.CATEGORICAL)],
            [(1.0, "x"), (3.0, "x"), (2.0, "y")],
            labels=[1, 1, 0],
        )
        stats = fit_stats(train)
        mean_mode = (2.0, "x")
        x0 = (5.0, "x")  # differs from mean/mode in the numeric feature only
        model = scripted_model_cls({x0: 0.9, mean_mode: 0.2})
        ctx = SearchContext(train, stats, model)
        expl = explain_sedc(x0, ctx)
        assert expl.valid
        assert expl.counterfactual == mean_mode
        assert expl.sparsity == 1
        assert [s.feature for s in expl.trace] == [0]

    def test_exhaustion_returns_invalid(self, scripted_model_cls):
        train = Dataset(cat_schema(2), [("a", "a"), ("b", "b")], labels=[1, 1])
        stats = fit_stats(train)
        ctx = SearchContext(train, stats, scripted_model_cls({}, default=0.9))
        x0 = ("b", "b")  # mode is ("a", "a")
        expl = explain_sedc(x0, ctx)
        assert not expl.valid
        assert expl.counterfactual == ("a", "a")  # everything replaced
        assert expl.changed_features == {0, 1}

    def test_flip_guarantee_when_mean_mode_is_opposite(self, quantized_dataset):
        stats = fit_stats(quantized_dataset)
        model = train_logistic(stats, quantized_dataset)
        ctx = SearchContext(quantized_dataset, stats, model)
        target = ctx.model.predict(ctx.mean_mode_instance())
        for x0 in quantized_dataset.rows[:40]:
            if ctx.model.predict(x0) != target:
                expl = explain_sedc(x0, ctx)
                assert expl.valid


class TestCbr:
    def test_empty_case_base(self):
        # four continuous features: any two rows differ in all of them, so no
        # cross-class pair is within two feature changes
        data = make_dataset(60, 4, 0, seed=7)
        stats = fit_stats(data)
        model = train_logistic(stats, data)
        ctx = SearchContext(data, stats, model)
        assert len(ctx.case_base()) == 0
        expl = explain_cbr(data.rows[0], ctx)
        assert not expl.valid
        assert expl.counterfactual == data.rows[0]

    def test_single_pair_copied(self, scripted_model_cls):
        a = ("x", "p")
        b = ("y", "p")
        train = Dataset(cat_schema(2), [a, b], labels=[1, 0])
        stats = fit_stats(train)
        model = scripted_model_cls({a: 0.9, b: 0.2})
        ctx = SearchContext(train, stats, model)
        assert ctx.case_base().tolist() == [[1, 0]]
        expl = explain_cbr(a, ctx)
        assert expl.valid
        assert expl.counterfactual == b
        assert expl.sparsity == 1

    def test_sparsity_bound_on_fixture(self, quantized_dataset):
        stats = fit_stats(quantized_dataset)
        model = train_logistic(stats, quantized_dataset)
        ctx = SearchContext(quantized_dataset, stats, model)
        assert len(ctx.case_base()) > 0
        seen_valid = 0
        for x0 in quantized_dataset.rows[:50]:
            expl = explain_cbr(x0, ctx)
            if expl.valid:
                seen_valid += 1
                assert expl.sparsity <= 2
        assert seen_valid > 0

    def test_anchor_member_matches_source_class(self, scripted_model_cls):
        # x0 predicted 0: distance must be measured to the predicted-0 member.
        a = ("x", "p")   # predicted 1
        b = ("y", "p")   # predicted 0
        far = ("z", "q")  # predicted 0, part of a second, farther pair
        far_mate = ("w", "q")  # predicted 1
        train = Dataset(cat_schema(2), [a, b, far, far_mate], labels=[1, 0, 0, 1])
        stats = fit_stats(train)
        model = scripted_model_cls({a: 0.9, b: 0.2, far: 0.1, far_mate: 0.8,
                                    ("y", "q"): 0.3}, default=0.5)
        ctx = SearchContext(train, stats, model)
        x0 = b
        expl = explain_cbr(x0, ctx)
        # nearest predicted-0 member is b itself (distance 0) in pair (a, b)
        assert expl.counterfactual == a
        assert expl.valid

    def test_distance_tie_goes_to_first_pair(self, scripted_model_cls):
        rows = [("a", "p"), ("b", "p"), ("a", "q"), ("a", "r")]
        train = Dataset(cat_schema(2), rows, labels=[0, 1, 0, 1])
        x0 = ("c", "z")
        model = scripted_model_cls({rows[0]: 0.1, rows[1]: 0.9, rows[2]: 0.2, rows[3]: 0.8,
                                    x0: 0.3, ("b", "z"): 0.7, ("c", "r"): 0.6})
        ctx = SearchContext(train, fit_stats(train), model)
        # pairs (0, 1), (0, 3), (1, 2), (2, 3); x0 is at distance 2 from rows 0 and 2
        assert ctx.case_base().tolist() == [[0, 1], [0, 3], [2, 1], [2, 3]]
        expl = explain_cbr(x0, ctx)
        assert expl.counterfactual == ("b", "z")
        assert expl.valid

    @settings(max_examples=200, deadline=None)
    @given(mixed_tables())
    def test_matches_brute_force_reference(self, table_and_x):
        table, x0 = table_and_x
        ctx = hash_context(table)
        rows, preds = table.rows, ctx.train_predictions()
        pairs = [
            (lo, hi)
            for lo in range(len(rows))
            for hi in range(lo + 1, len(rows))
            if preds[lo] != preds[hi]
            and 1 <= sum(a != b for a, b in zip(rows[lo], rows[hi])) <= 2
        ]
        assert ctx.case_base().tolist() == [
            [lo, hi] if preds[lo] == 0 else [hi, lo] for lo, hi in pairs
        ]
        c0 = ctx.model.predict(x0)
        expected, valid = x0, False
        best_d = None
        for lo, hi in pairs:
            same, other = (lo, hi) if preds[lo] == c0 else (hi, lo)
            d = heom(ctx.stats, x0, rows[same], ctx.weights)
            if best_d is None or d < best_d:
                best_d = d
                expected = tuple(
                    rows[other][j] if rows[same][j] != rows[other][j] else x0[j]
                    for j in range(len(x0))
                )
                valid = ctx.model.predict(expected) != c0
        expl = explain_cbr(x0, ctx)
        assert expl.counterfactual == expected
        assert expl.valid == valid


class TestSearchContext:
    def test_validation(self, mixed_dataset, scripted_model_cls):
        stats = fit_stats(mixed_dataset)
        model = scripted_model_cls({}, default=0.5)
        with pytest.raises(DistanceError, match="^statistics do not match the dataset schema$"):
            SearchContext(mixed_dataset, stats[:-1], model)

    def test_mean_mode_instance(self, tiny_dataset, tiny_stats, scripted_model_cls):
        ctx = SearchContext(tiny_dataset, tiny_stats, scripted_model_cls({}, default=0.5))
        assert ctx.mean_mode_instance() == (25.0, "red")

    def test_train_predictions_cached(self, tiny_dataset, tiny_stats, scripted_model_cls):
        ctx = SearchContext(tiny_dataset, tiny_stats, scripted_model_cls({}, default=0.4))
        preds = ctx.train_predictions()
        assert preds.tolist() == [0, 0, 0, 0]
        assert ctx.train_predictions() is preds


def test_explanation_to_dict(scripted_model_cls):
    train = Dataset(cat_schema(2), [("a", "b"), ("a", "a")], labels=[0, 1])
    stats = fit_stats(train)
    model = scripted_model_cls({("a", "a"): 0.9, ("a", "b"): 0.2})
    ctx = SearchContext(train, stats, model)
    expl = explain_nice(("a", "a"), RewardKind.SPARSITY, ctx)
    doc = explanation_to_dict(expl, ["first", "second"], metrics={"sparsity": 1})
    assert doc["explainer"] == "nice-spars"
    assert doc["valid"] is True
    assert doc["changes"] == [
        {"feature": "second", "index": 1, "old": "a", "new": "b"}
    ]
    assert doc["trace"][0]["feature"] == "second"
    assert doc["metrics"] == {"sparsity": 1}
    assert doc["anchor_index"] == 0
