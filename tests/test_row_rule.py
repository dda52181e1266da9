"""One row rule: every built-in path rejects a bad value with the same message.

The rule is the schema's, compiled once by the training :class:`Dataset`;
the statistics :func:`fit_stats` returns carry it to every other path. Only
a schema's declared category sets restrict labels, so a category the
training split lacks, like a number outside its range, is taken by every path.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from nicecf.distance import heom, heom_to_rows, k_nearest
from nicecf.errors import EncodeError, IngestError, NoUnlikeNeighborError
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
from nicecf.tabular import Dataset, encode, encode_batch, fit_stats, swap_hybrids
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
    assert outcome(lambda: Dataset(table.schema, [good, bad]), IngestError) == (
        f"{message} (row=1, column={name!r})"
    )


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
        # Only the data can leave an explainer without a reference row.
        ctx = SearchContext(table, stats, model, scorer=scorer)
        preds, c0 = ctx.train_predictions(), int(score >= 0.5)
        labels = table.label_array()
        no_nun = not ((preds != c0) & (labels == preds)).any()
        expected = {**dict.fromkeys((f"nice-{kind.value}" for kind in RewardKind), no_nun),
                    "wit": not (preds != c0).any(), "sedc": False, "cbr": False}
        for explainer, explain in EXPLAINERS.items():
            try:
                assert explain(extra, ctx).source == extra
                raised = False
            except NoUnlikeNeighborError:
                raised = True
            assert raised == expected[explainer], explainer
