"""One check per fact: every built-in path rejects a bad row, or statistics
of another schema, with the same error and message.

The row rule is the schema's, compiled once by the training
:class:`Dataset`; the statistics :func:`fit_stats` returns carry it to every
other path. It judges a row's length too. Only a schema's declared category
sets restrict labels, so a category the training split lacks, like a number
outside its range, is taken by every path. Whether statistics describe a
dataset is checked by their encoding plan alone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicecf.distance import heom, heom_to_rows, k_nearest, nearest_unlike_neighbor
from nicecf.errors import DistanceError, EncodeError, IngestError
from nicecf.explainers import (
    RewardKind,
    SearchContext,
    explain_cbr,
    explain_nice,
    explain_sedc,
    explain_wit,
)
from nicecf.model import train_knn_classifier, train_logistic
from nicecf.plausibility import AEConfig, ae_error, ae_scorer, swap_state, train_autoencoder
from nicecf.synthetic import make_dataset
from nicecf.tabular import (
    Dataset,
    FeatureKind,
    FeatureSpec,
    _RowRule,
    encode,
    encode_batch,
    fit_stats,
    swap_hybrids,
)
from strategies import mixed_tables, rows_with_one_bad_value

EXPLAINERS = {
    **{f"nice-{kind.value}": lambda x, ctx, kind=kind: explain_nice(x, kind, ctx)
       for kind in RewardKind},
    "wit": explain_wit,
    "sedc": explain_sedc,
    "cbr": explain_cbr,
}


def outcome(call, error=EncodeError) -> str:
    """The message of the ``error`` that ``call`` raises, or a note that it raised none."""
    try:
        call()
    except error as exc:
        return str(exc)
    return "accepted"


@settings(max_examples=60, deadline=None)
@given(rows_with_one_bad_value())
def test_every_path_gives_the_same_message(problem):
    table, bad, name, message = problem
    good = table.rows[0]
    stats = fit_stats(table)
    scorer = ae_scorer(train_autoencoder(table, AEConfig(epochs=1), stats), stats)
    calls = {
        "encode": lambda: encode(stats, bad),
        "encode_batch": lambda: encode_batch(stats, [good, bad]),
        "ae scorer": lambda: scorer(bad),
        "ae swap state": lambda: swap_state(scorer, good, bad).scores(range(len(bad))),
        "heom": lambda: heom(stats, bad, good),
        "heom, second row": lambda: heom(stats, good, bad),
        "heom_to_rows": lambda: heom_to_rows(stats, bad, table),
        "k_nearest": lambda: k_nearest(stats, bad, table, 1),
    }
    for model_name, model in (("logistic", train_logistic(stats, table, epochs=5)),
                              ("knn", train_knn_classifier(stats, table, k=1))):
        ctx = SearchContext(table, stats, model, scorer=scorer)
        calls[f"{model_name} score"] = lambda model=model: model.score(bad)
        calls[f"{model_name} score_batch"] = lambda model=model: model.score_batch([good, bad])
        calls[f"{model_name} swap_state"] = (
            lambda model=model: model.swap_state(good, bad).scores(range(len(bad))))
        for explainer, explain in EXPLAINERS.items():
            calls[f"{model_name} {explainer}"] = lambda explain=explain, ctx=ctx: explain(bad, ctx)
    assert {key: outcome(call) for key, call in calls.items()} == dict.fromkeys(calls, message)
    column = "" if name is None else f", column={name!r}"
    assert outcome(lambda: Dataset(table.schema, [good, bad]), IngestError) == (
        f"{message} (row=1{column})"
    )


def schema_consumers(table, stats):
    """Every consumer of statistics and a dataset, each as a call over ``stats``."""
    x = table.rows[0]
    return {
        "SearchContext": lambda: SearchContext(
            table, stats, train_logistic(fit_stats(table), table, epochs=5)),
        "train_knn_classifier": lambda: train_knn_classifier(stats, table, k=3),
        "heom_to_rows": lambda: heom_to_rows(stats, x, table),
        "k_nearest": lambda: k_nearest(stats, x, table, 3),
        "nearest_unlike_neighbor": lambda: nearest_unlike_neighbor(
            stats, x, table, table.labels, 1 - table.labels[0]),
        "train_logistic": lambda: train_logistic(stats, table, epochs=5),
        "train_autoencoder": lambda: train_autoencoder(table, AEConfig(epochs=1), stats),
    }


@pytest.mark.parametrize("change", ["two features swapped", "one feature short"])
def test_every_consumer_rejects_statistics_of_another_schema(change):
    table = make_dataset(60, 2, 2, seed=3)
    stats = list(fit_stats(table))
    if change == "two features swapped":
        stats[0], stats[2] = stats[2], stats[0]  # num0 and cat0
    else:
        stats.pop()
    calls = schema_consumers(table, stats)
    assert {key: outcome(call, DistanceError) for key, call in calls.items()} == dict.fromkeys(
        calls, "statistics do not match the dataset schema")


def test_every_consumer_takes_statistics_built_by_hand_that_match():
    table = make_dataset(60, 2, 2, seed=3)
    for call in schema_consumers(table, list(fit_stats(table))).values():
        call()


def test_trainers_take_their_own_rows_without_a_second_check(mixed_dataset, monkeypatch):
    stats = fit_stats(mixed_dataset)

    def no_check(self, row):
        raise AssertionError("a training row was checked again")

    monkeypatch.setattr(_RowRule, "problem", no_check)
    train_logistic(stats, mixed_dataset, epochs=5)
    train_autoencoder(mixed_dataset, AEConfig(epochs=1), stats)


def test_trainers_hold_another_datasets_rows_to_the_plan_rule():
    schema = [FeatureSpec("c", FeatureKind.CATEGORICAL, ("a", "b")),
              FeatureSpec("x", FeatureKind.NUMERICAL)]
    narrow = Dataset(schema, [("a", 0.0), ("b", 1.0)], [0, 1])
    wide = Dataset([FeatureSpec("c", FeatureKind.CATEGORICAL), schema[1]],
                   [("a", 0.0), ("c", 1.0)], [0, 1])
    stats = fit_stats(narrow)
    with pytest.raises(EncodeError, match="^unknown category 'c' for 'c'$"):
        train_logistic(stats, wide, epochs=5)
    with pytest.raises(EncodeError, match="^unknown category 'c' for 'c'$"):
        train_autoencoder(wide, AEConfig(epochs=1), stats)


# 1000.0 over a training range of 1e-300 encodes as 1e303, whose square
# overflows in the autoencoder's error; over 1e-305 the logistic model's dot
# product overflows too; over 5e-324 the quotient itself does.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tiny", [1e-300, 1e-305, 5e-324])
def test_overflow_is_inf_without_a_warning(tiny):
    schema = [FeatureSpec(name, FeatureKind.NUMERICAL) for name in ("a", "b")]
    table = Dataset(schema, [(0.0, 0.0), (tiny, 1.0)], [0, 1])
    stats = fit_stats(table)
    far, target = (1000.0, 0.0), table.rows[1]
    hybrid = (1000.0, 1.0)  # far with feature 1 taken from target
    ae = train_autoencoder(table, AEConfig(epochs=1), stats)
    scorer = ae_scorer(ae, stats)
    assert ae_error(ae, stats, far) == scorer(far) == math.inf
    assert swap_state(scorer, far, target).scores([1]) == [math.inf]
    assert encode_batch(stats, [far]).tobytes() == encode(stats, far).tobytes()
    d = heom_to_rows(stats, far, table)
    assert hexes(d) == hexes(heom(stats, far, row) for row in table.rows)
    assert d[0] == 1000.0 / tiny  # inf for 5e-324
    assert k_nearest(stats, far, table, 1) == [0]
    for model in (train_logistic(stats, table), train_knn_classifier(stats, table, k=1)):
        assert hexes([model.score(far)]) == hexes(model.score_batch([far]))
        assert hexes(model.swap_state(far, target).scores([1])) == hexes(
            model.score_batch([hybrid]))


# The row rule takes a numpy.float64 (a float subclass); its quotient must
# not follow numpy's scalar rules, which warn where a float gives inf.
@pytest.mark.filterwarnings("error")
def test_a_numpy_float_encodes_as_its_python_float():
    schema = [FeatureSpec(name, FeatureKind.NUMERICAL) for name in ("a", "b")]
    table = Dataset(schema, [(0.0, 0.0), (5e-324, 1.0)], [0, 1])
    stats = fit_stats(table)
    far, plain = (np.float64(1000.0), np.float64(0.5)), (1000.0, 0.5)
    assert encode(stats, far).tobytes() == encode(stats, plain).tobytes()
    assert encode_batch(stats, [far]).tobytes() == encode(stats, plain).tobytes()
    ae = train_autoencoder(table, AEConfig(epochs=1), stats)
    assert ae_error(ae, stats, far) == ae_scorer(ae, stats)(far) == math.inf


# Over training values 0.0 and 5e-324, 1000.0 encodes as inf in both
# features. The logistic coefficients have opposite signs, so the dot product
# is inf - inf; the autoencoder's first layer meets the same sum.
@pytest.mark.filterwarnings("error")
def test_inf_minus_inf_cannot_be_scored_but_is_implausible():
    schema = [FeatureSpec(name, FeatureKind.NUMERICAL) for name in ("a", "b")]
    table = Dataset(schema, [(0.0, 5e-324), (5e-324, 0.0)], [0, 1])
    stats = fit_stats(table)
    far, current, target = (1000.0, 1000.0), (1000.0, 0.0), (0.0, 1000.0)
    model = train_logistic(stats, table, epochs=5)
    assert model.coef[0] > 0.0 > model.coef[1]
    calls = (lambda: model.score(far), lambda: model.score_batch([table.rows[0], far]),
             lambda: model.predict(far), lambda: model.swap_state(current, target).scores([0, 1]))
    for call in calls:
        with pytest.raises(EncodeError, match=r"^row cannot be scored: its encoding adds \+inf and -inf$"):
            call()
    ae = train_autoencoder(table, AEConfig(epochs=5), stats)
    scorer = ae_scorer(ae, stats)
    assert ae_error(ae, stats, far) == scorer(far) == math.inf
    assert swap_state(scorer, current, target).scores([0, 1]) == [
        ae_error(ae, stats, (0.0, 0.0)), math.inf]


def test_fitted_statistics_are_one_plan_with_the_schema_rule(mixed_dataset):
    stats = fit_stats(mixed_dataset)
    assert stats.rule is mixed_dataset.rule
    model = train_logistic(stats, mixed_dataset, epochs=5)
    scorer = ae_scorer(train_autoencoder(mixed_dataset, AEConfig(epochs=1), stats), stats)
    ctx = SearchContext(mixed_dataset, stats, model, scorer=scorer)
    assert model.stats is stats and scorer.stats is stats and ctx.stats is stats


def hexes(values):
    return [float(v).hex() for v in values]


@settings(max_examples=40, deadline=None)
@given(mixed_tables(), st.data())
def test_every_path_takes_values_training_never_saw(table_and_x, data):
    table, extra = table_and_x
    n, m = len(table), len(extra)
    table = Dataset(table.schema, table.rows,
                    data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    target = data.draw(st.sampled_from(table.rows))
    features = data.draw(st.lists(st.integers(0, m - 1), max_size=2 * m))
    hybrids = swap_hybrids(extra, target, features)
    rows = [*table.rows, extra]
    stats = fit_stats(table)
    assert encode_batch(stats, rows)[-1].tobytes() == encode(stats, extra).tobytes()
    d = heom_to_rows(stats, extra, table)
    assert hexes(d) == hexes(heom(stats, extra, row) for row in table.rows)
    assert len(k_nearest(stats, extra, table, 1)) == 1
    ae = train_autoencoder(table, AEConfig(epochs=1), stats)
    scorer = ae_scorer(ae, stats)
    assert hexes([scorer(extra)]) == hexes([ae_error(ae, stats, extra)])
    assert hexes(swap_state(scorer, extra, target).scores(features)) == hexes(
        ae_error(ae, stats, h) for h in hybrids)
    for model in (train_logistic(stats, table, epochs=5), train_knn_classifier(stats, table, k=1)):
        score = model.score(extra)
        assert hexes([score]) == hexes(model.score_batch(rows)[-1:])
        swapped = hexes(model.swap_state(extra, target).scores(features))
        assert swapped == hexes(model.score_batch(hybrids))
        assert swapped == hexes(model.score(h) for h in hybrids)
        # Only the data can leave an explainer without a reference row, and
        # then it returns the source unchanged, marked invalid.
        ctx = SearchContext(table, stats, model, scorer=scorer)
        preds, c0 = ctx.train_predictions(), int(score >= 0.5)
        labels = table.label_array()
        no_nun = not ((preds != c0) & (labels == preds)).any()
        no_row = {**dict.fromkeys((f"nice-{kind.value}" for kind in RewardKind), no_nun),
                  "wit": not (preds != c0).any()}
        for explainer, explain in EXPLAINERS.items():
            expl = explain(extra, ctx)
            assert expl.source == extra, explainer
            if explainer in no_row:
                assert (expl.anchor_index is None) == no_row[explainer], explainer
            if no_row.get(explainer):
                assert (expl.valid, expl.counterfactual, expl.trace) == (False, extra, ()), (
                    explainer)
