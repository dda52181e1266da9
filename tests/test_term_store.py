"""Scans that read a source's term store give the bits of scans that compute every term.

A store keys each feature's unweighted terms by (feature index, scale,
value), so one test table here repeats a feature as a mirror (its column
reversed, each instance holding the same value in both), and every source
is scanned with range and with std scales, and again as a twin whose values
are equal but not identical (``0.0`` and ``-0.0``, ``2`` and ``2.0``). A
store is read by every scan over its own training set while it is its
thread's newest, and by no scan over another one. A second source's store
takes over the first one's buffer and empties it, and a store keeps only its
source's and anchor's range-scaled terms. Then the seven explainers and
their metrics, run source after source on one context, must give what cold
calls give.
"""

import dataclasses
import gc
import math
import sys
import threading
import weakref
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nicecf.distance
import nicecf.explainers
from nicecf.distance import _newest_store, _term_matrix, _TermStore, heom_to_rows
from nicecf.evaluation import compute_metrics
from nicecf.explainers import RewardKind, SearchContext, explain_nice
from nicecf.model import KnnHandle, train_knn_classifier, train_logistic
from nicecf.tabular import Dataset, FeatureSpec, _plan, fit_stats
from strategies import FEW_NUMBERS, INTS_OR_FLOATS, NUMBERS, WIDE_NUMBERS, mixed_tables
from test_explainers import ALL_EXPLAINERS, hash_scorer, held_out
from test_swaps import ScoreBatchOnly


def twin(value):
    """A value equal to ``value`` under ``==`` but not identical: the other zero, or int for float."""
    if isinstance(value, str):
        return value
    if value == 0:
        return 0.0 if math.copysign(1.0, value) < 0 else -0.0
    if isinstance(value, int):
        return float(value)
    return int(value) if value.is_integer() and abs(value) < 2.0**53 else value


def hexes(d):
    return [v.hex() for v in d.tolist()]


@st.composite
def store_problems(draw):
    """A labeled table with feature 0 mirrored, two instances and their twins, and weights."""
    numbers = draw(st.sampled_from((NUMBERS, WIDE_NUMBERS, INTS_OR_FLOATS, FEW_NUMBERS)))
    table, extra = draw(mixed_tables(numbers=numbers))
    first = table.schema[0]
    schema = list(table.schema) + [FeatureSpec("mirror", first.kind, first.categories)]
    n = len(table)
    rows = [row + (table.rows[n - 1 - i][0],) for i, row in enumerate(table.rows)]
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    train = Dataset(schema, rows, labels)
    other = draw(st.sampled_from(table.rows))
    xs = [x + (x[0],) for x in (extra, other)]
    xs += [tuple(twin(v) for v in x) for x in xs]
    weights = draw(st.lists(st.sampled_from((1.0, 0.5, 3.0, 1e-3)),
                            min_size=len(schema), max_size=len(schema)))
    return train, xs, weights


@given(store_problems(), st.permutations(range(3)))
@settings(max_examples=300, deadline=None)
def test_scans_through_the_store_match_the_plain_scans(problem, order):
    train, xs, weights = problem
    x, y, x_twin, y_twin = xs
    stats = _plan(fit_stats(train))
    ctx = SearchContext(train, stats, train_knn_classifier(stats, train, k=1), weights)
    # The same schema and statistics, the rows in reverse: no store of train may serve it.
    reversed_train = Dataset(train.schema, train.rows[::-1], train.labels[::-1])

    def scans(v):
        """heom_to_rows, _wit_distances and the kNN term matrix of ``v``, run in the drawn order."""
        runs = (lambda: hexes(heom_to_rows(stats, v, train, ctx.weights)),
                lambda: hexes(nicecf.explainers._wit_distances(ctx, v)),
                lambda: [hexes(row) for row in _term_matrix(stats, v, train)])
        got = [None] * 3
        for i in order:
            got[i] = runs[i]()
        return (tuple(got), hexes(heom_to_rows(stats, v, reversed_train, ctx.weights)),
                [hexes(row) for row in _term_matrix(stats, v, reversed_train)])

    def kept_only_source_and_anchor(store, source, anchor):
        return all(scale == stats[j].range and value in (source[j], anchor[j])
                   for j, scale, value in store)

    assert _newest_store(train) is None and _newest_store(reversed_train) is None
    expected = [scans(v) for v in xs]  # no store covers either table yet
    first = _TermStore(train, stats, x)
    assert _newest_store(train) is first and _newest_store(reversed_train) is None
    assert scans(y) == expected[1]  # y is not yet the anchor, so its terms are not kept
    first.anchor = y
    for i in (0, 2, 1, 0):
        assert scans(xs[i]) == expected[i]
    assert kept_only_source_and_anchor(first, x, y)
    second = _TermStore(train, stats, y_twin)  # takes over the first store's buffer
    assert _newest_store(train) is second and len(first) == 0
    for i in (3, 0):
        assert scans(xs[i]) == expected[i]
    second.anchor = x_twin
    for i in (0, 1, 3):
        assert scans(xs[i]) == expected[i]
    assert kept_only_source_and_anchor(second, y, x) and len(second) <= 2 * len(stats)


def bits(value):
    """``value`` with every float in it, inside tuples and dataclasses too, as its hex."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return tuple(bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(bits(v) for v in value)
    return value


def results(expl, rec):
    """An explanation and its metric record, their times left out, floats in hex."""
    return bits(replace(expl, elapsed_ms=0.0)), bits(replace(rec, time_ms=0.0))


def cold(x0, eid, ctx, iid):
    """``eid`` on ``x0`` and its metrics, each given a new tuple, so that neither reuses a record."""
    expl = ALL_EXPLAINERS[eid](tuple(list(x0)), ctx)
    return results(expl, compute_metrics(replace(expl, source=tuple(list(x0))), ctx, iid))


MODELS = {
    "logistic": lambda stats, train: train_logistic(stats, train),
    "knn3": lambda stats, train: train_knn_classifier(stats, train, k=3),
    "score_batch_only": lambda stats, train: ScoreBatchOnly(train_logistic(stats, train)),
}


def count_terms(train, monkeypatch):
    """A list that gets (feature index, scale, range, value) of each ``_feature_terms`` call."""
    feature = {id(column): j for j, column in enumerate(train.columns())}
    calls = []
    compute = nicecf.distance._feature_terms

    def counted(stat, scale, column, value, out=None):
        if id(column) in feature:
            calls.append((feature[id(column)], scale, stat.range, value))
        return compute(stat, scale, column, value, out)

    monkeypatch.setattr(nicecf.distance, "_feature_terms", counted)
    return calls


def own_terms(calls, source, anchor):
    """How often ``calls`` computed each range-scaled term of ``source``'s and ``anchor``'s values.

    Keyed by (feature index, 0 for the source's value or 1 for the anchor's).
    """
    counts = Counter()
    for j, scale, range_, value in calls:
        if scale == range_ and value == source[j]:
            counts[j, 0] += 1
        elif scale == range_ and anchor is not None and value == anchor[j]:
            counts[j, 1] += 1
    return counts


def each_once(source, anchor):
    """``own_terms`` when every term of the source's and the anchor's values was computed once."""
    return Counter({(j, which): 1 for j in range(len(source)) for which in (0, 1)
                    if which == 0 or anchor is not None and anchor[j] != source[j]})


def store_context(data, model):
    train, sources, stats = held_out(data)
    ctx = SearchContext(train, stats, MODELS[model](stats, train), scorer=hash_scorer)
    ctx.warm(include_case_base=True)
    return ctx, sources


@pytest.mark.parametrize("model", MODELS)
def test_query_major_reuse_gives_the_cold_results(quantized_dataset, model, monkeypatch):
    # All seven explainers, each followed by its metrics, source after source.
    # The source's store keeps its source's and its anchor's terms, so no
    # metric scan computes one that an earlier scan of the source computed:
    # each is computed once per source, the source's before any metric scan.
    ctx, sources = store_context(quantized_dataset, model)
    expected = [cold(x0, eid, ctx, i) for i, x0 in enumerate(sources) for eid in ALL_EXPLAINERS]
    calls = count_terms(ctx.train, monkeypatch)
    got, anchors = [], 0
    for i, x0 in enumerate(sources):
        calls.clear()
        metric_calls = []
        for explain in ALL_EXPLAINERS.values():
            expl = explain(x0, ctx)
            start = len(calls)
            got.append(results(expl, compute_metrics(expl, ctx, i)))
            metric_calls += calls[start:]
        anchor = ctx._last_source.record.store.anchor
        anchors += anchor is not None
        assert own_terms(calls, x0, anchor) == each_once(x0, anchor)
        assert all(which == 1 for _, which in own_terms(metric_calls, x0, anchor))
    assert got == expected
    assert anchors > 0


def test_two_threads_on_interleaved_sources_give_the_cold_results(quantized_dataset):
    # Each thread explains every other source; between any two steps of one
    # thread the other runs a step on its own source.
    ctx, sources = store_context(quantized_dataset, "knn3")
    sources = sources[:8]
    expected = {(i, eid): cold(x0, eid, ctx, i)
                for i, x0 in enumerate(sources) for eid in ALL_EXPLAINERS}
    barrier = threading.Barrier(2, timeout=30)
    got = [[], []]

    def work(t):
        for i in range(t, len(sources), 2):
            for eid, explain in ALL_EXPLAINERS.items():
                expl = explain(sources[i], ctx)
                barrier.wait()
                got[t].append(((i, eid), results(expl, compute_metrics(expl, ctx, i))))
                barrier.wait()

    threads = [threading.Thread(target=work, args=(t,)) for t in range(2)]
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
    assert [key for results_ in got for key, _ in results_] == [
        (i, eid) for t in range(2) for i in range(t, len(sources), 2) for eid in ALL_EXPLAINERS]
    assert all(out == expected[key] for results_ in got for key, out in results_)


def test_each_term_of_a_fresh_source_and_its_anchor_is_computed_once(quantized_dataset,
                                                                     monkeypatch):
    # The record registers its store before it scores the source, so the kNN
    # model's score of the source fills the store that the neighbour scan,
    # the swap states, the baselines and every metric scan then read.
    ctx, sources = store_context(quantized_dataset, "knn3")
    calls = count_terms(ctx.train, monkeypatch)
    x0 = sources[0]
    for explain in ALL_EXPLAINERS.values():
        compute_metrics(explain(x0, ctx), ctx)
    anchor = ctx._last_source.record.store.anchor
    assert anchor is not None
    assert own_terms(calls, x0, anchor) == each_once(x0, anchor)


def test_the_registry_keeps_no_store_or_training_set_alive(quantized_dataset):
    ctx, sources = store_context(quantized_dataset, "knn3")
    for i, x0 in enumerate(sources[:3]):
        for explain in ALL_EXPLAINERS.values():
            compute_metrics(explain(x0, ctx), ctx, i)
    store = ctx._last_source.record.store
    assert _newest_store(ctx.train) is store
    refs = [weakref.ref(ctx.train), weakref.ref(store)]
    del ctx, store
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_a_thread_keeps_only_its_last_sources_store(quantized_dataset):
    ctx, sources = store_context(quantized_dataset, "logistic")
    stores = []
    for i, x0 in enumerate(sources):
        for explain in ALL_EXPLAINERS.values():
            compute_metrics(explain(x0, ctx), ctx, i)
        stores.append(weakref.ref(ctx._last_source.record.store))
    gc.collect()
    last = ctx._last_source.record.store
    assert [ref() for ref in stores if ref() is not None] == [last]
    assert 0 < len(last) <= 2 * len(ctx.stats)


class WrappedKnn(KnnHandle):
    """A kNN handle whose ``swap_state`` wraps ``super().swap_state`` and counts its calls."""

    def __init__(self, inner):
        super().__init__(inner.stats, inner.train, inner.k)
        self.swap_calls = 0

    def swap_state(self, current, target):
        self.swap_calls += 1
        return super().swap_state(current, target)


def test_an_override_that_wraps_super_swap_state_is_used_by_the_search(quantized_dataset):
    ctx, sources = store_context(quantized_dataset, "knn3")
    plain = ctx.model
    wrapped = WrappedKnn(plain)
    current, target = sources[0], sources[1]
    features = range(len(current))
    assert bits(wrapped.swap_state(current, target).scores(features)) == bits(
        plain.swap_state(current, target).scores(features))
    assert wrapped.swap_calls == 1
    wrapped_ctx = SearchContext(ctx.train, ctx.stats, wrapped, scorer=hash_scorer)
    for i, x0 in enumerate(sources[:6]):
        expected = explain_nice(x0, RewardKind.SPARSITY, ctx)
        expected = results(expected, compute_metrics(expected, ctx, i))
        expl = explain_nice(x0, RewardKind.SPARSITY, wrapped_ctx)
        assert results(expl, compute_metrics(expl, wrapped_ctx, i)) == expected
    assert wrapped.swap_calls > 1  # the search asked the override for its states


@pytest.mark.parametrize("first", [(), ("wit", "sedc", "cbr")])
def test_a_store_keeps_the_source_and_anchor_terms_whatever_ran_first(quantized_dataset, first):
    ctx, sources = store_context(quantized_dataset, "knn3")
    ranges = [stat.range for stat in ctx.stats]
    for i, x0 in enumerate(sources[:5]):
        for eid in first:
            compute_metrics(ALL_EXPLAINERS[eid](x0, ctx), ctx, i)
        compute_metrics(explain_nice(x0, RewardKind.NONE, ctx), ctx, i)
        record = ctx._last_source.record
        anchor = ctx.train.rows[record.nun(ctx)]
        assert record.store.anchor is anchor
        kept = {(j, ranges[j], v) for x in (x0, anchor) for j, v in enumerate(x)}
        assert set(record.store) == kept  # the kNN swap state read every one of them
