"""One row rule: every built-in path rejects a bad value with the same message."""

from hypothesis import given, settings

from nicecf.errors import EncodeError, IngestError
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
from nicecf.tabular import Dataset, encode, encode_batch, fit_stats
from strategies import rows_with_one_bad_value

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
    }
    for model_name, model in (("logistic", train_logistic(stats, table, epochs=5)),
                              ("knn", train_knn_classifier(stats, table, k=1))):
        ctx = SearchContext(table, stats, model, scorer=scorer)
        calls[f"{model_name} score"] = lambda model=model: model.score(bad)
        calls[f"{model_name} score_batch"] = lambda model=model: model.score_batch([good, bad])
        for explainer, explain in EXPLAINERS.items():
            calls[f"{model_name} {explainer}"] = lambda explain=explain, ctx=ctx: explain(bad, ctx)
    assert {key: outcome(call) for key, call in calls.items()} == dict.fromkeys(calls, message)
    assert outcome(lambda: Dataset(table.schema, [good, bad]), IngestError) == (
        f"{message} (row=1, column={name!r})"
    )
