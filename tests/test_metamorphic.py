"""Metamorphic relations: a transformed input must give a predictably transformed output.

Scaling every cost weight by 2**k multiplies every weighted distance by
exactly 2**k, as long as no term overflows or becomes subnormal. So every
explainer keeps its nearest unlike neighbour, counterfactual, validity,
anchor and trace features, each proximity reward whose cost is above
``_EPSILON`` is multiplied by exactly 2**-k, sparsity and plausibility
rewards keep their bits, and the unweighted metrics do not move. The two
contexts share one training set, so their scans also read each other's term
stores, which keep unweighted terms and weight them as they are read.

Renaming one categorical feature's values consistently, in the training
rows, the source and the schema, maps every result through the renaming:
a categorical term only asks whether two labels are equal. That holds under
the kNN model and a scorer that reads the original values, for any
renaming, once the feature has a unique mode (``fit_stats`` breaks a tie by
the smallest label, which moves ``sedc``'s target). Under the logistic model
it holds for a renaming that keeps the labels' sorted order, from which the
encoding is laid out.

Appending exact copies of training rows after the last row, with the
statistics and the model held fixed, changes no explainer's result: every
choice among equally near rows or pairs goes to the first.
"""

from collections import Counter

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nicecf.distance import heom_feature
from nicecf.evaluation import compute_metrics
from nicecf.explainers import _EPSILON, SearchContext
from nicecf.model import train_knn_classifier, train_logistic
from nicecf.tabular import Dataset, FeatureKind, FeatureSpec, fit_stats
from strategies import DECLARED, FEW_NUMBERS, mixed_tables
from test_explainers import ALL_EXPLAINERS, hash_scorer

# Numbers on a grid of quarters within +-250: a nonzero numeric term is at
# least 0.25 / 500, so no weighted term or cost below comes near a subnormal,
# none overflows, and every nonzero cost stays above _EPSILON at any scale.
QUARTERS = st.integers(-1000, 1000).map(lambda i: i / 4)
WEIGHTS = (0.1, 0.5, 1.0, 3.0)


@st.composite
def scaled_problems(draw):
    """A labeled random table, its statistics, a source, weights and a power of two."""
    table, extra = draw(mixed_tables(numbers=draw(st.sampled_from((QUARTERS, FEW_NUMBERS)))))
    n = len(table)
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    table = Dataset(table.schema, table.rows, labels)
    x0 = draw(st.one_of(st.just(extra), st.sampled_from(table.rows)))
    weights = draw(st.lists(st.sampled_from(WEIGHTS), min_size=len(x0), max_size=len(x0)))
    return table, fit_stats(table), x0, weights, draw(st.integers(-3, 3))


def metrics(record):
    """A metric record's quality fields, floats in hex."""
    fields = (record.valid, record.sparsity, record.proximity, record.ae_error, record.knn5)
    return [v.hex() if isinstance(v, float) else v for v in fields]


@settings(max_examples=150, deadline=None)
@given(scaled_problems())
def test_scaling_every_weight_by_a_power_of_two(problem):
    table, stats, x0, weights, k = problem
    model = train_logistic(stats, table, epochs=20)
    ctx = SearchContext(table, stats, model, weights, hash_scorer)
    scaled = SearchContext(table, stats, model, [w * 2.0**k for w in weights], hash_scorer)
    for eid, explain in ALL_EXPLAINERS.items():
        expl, other = explain(x0, ctx), explain(x0, scaled)
        assert (other.counterfactual, other.valid, other.anchor, other.anchor_index) == (
            expl.counterfactual, expl.valid, expl.anchor, expl.anchor_index)
        assert [s.feature for s in other.trace] == [s.feature for s in expl.trace]
        assert [s.score.hex() for s in other.trace] == [s.score.hex() for s in expl.trace]
        for step, scaled_step in zip(expl.trace, other.trace):
            if eid == "nice-prox":
                j = step.feature
                cost = weights[j] * heom_feature(stats[j], x0[j], expl.anchor[j])
                assert cost > _EPSILON and cost * 2.0**k > _EPSILON
                assert scaled_step.reward.hex() == (step.reward * 2.0**-k).hex()
            else:
                assert scaled_step.reward.hex() == step.reward.hex()
        assert metrics(compute_metrics(other, scaled)) == metrics(compute_metrics(expl, ctx))


def outcome(expl, rename=lambda x: x):
    """An explanation's result, its rows passed through ``rename`` and its floats in hex."""
    def row(x):
        return None if x is None else rename(x)

    return (expl.explainer_id, row(expl.source), row(expl.counterfactual), expl.valid,
            expl.changed_features, row(expl.anchor), expl.anchor_index,
            [(s.feature, s.reward.hex(), s.score.hex()) for s in expl.trace])


# New labels for a renamed feature; each renaming draws as many as DECLARED holds.
NEW_LABELS = ("fig", "kiwi", "lime", "pear", "plum", "sloe")


@st.composite
def renamed_problems(draw):
    """A labeled table, a source, weights, a model kind, a feature and a renaming of its labels.

    The feature is categorical and its mode is unique. The renaming covers
    every label the table and the source may hold; for the logistic model it
    keeps their sorted order.
    """
    numbers = draw(st.sampled_from((QUARTERS, FEW_NUMBERS)))
    table, extra = draw(mixed_tables(min_rows=3, numbers=numbers))
    categorical = [j for j, spec in enumerate(table.schema) if spec.kind is FeatureKind.CATEGORICAL]
    assume(categorical)
    j = draw(st.sampled_from(categorical))
    rows = [list(row) for row in table.rows]
    counts = Counter(row[j] for row in rows)
    tied = sorted(c for c in counts if counts[c] == max(counts.values()))
    if len(tied) > 1:
        mode = draw(st.sampled_from(tied))
        rows[draw(st.sampled_from([i for i, row in enumerate(rows) if row[j] != mode]))][j] = mode
    labels = draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    table = Dataset(table.schema, [tuple(row) for row in rows], labels)
    x0 = draw(st.one_of(st.just(extra), st.sampled_from(table.rows)))
    weights = draw(st.lists(st.sampled_from(WEIGHTS), min_size=len(x0), max_size=len(x0)))
    kind = draw(st.sampled_from(("knn", "logistic")))
    new = draw(st.permutations(NEW_LABELS))[: len(DECLARED)]
    renaming = dict(zip(sorted(DECLARED), sorted(new) if kind == "logistic" else new))
    return table, x0, weights, kind, j, renaming


def renamed(table, j, renaming):
    """``table`` with feature ``j``'s labels renamed in its rows and schema, and the row map."""
    def rename(x):
        return x[:j] + (renaming[x[j]],) + x[j + 1:]

    schema = list(table.schema)
    spec = schema[j]
    declared = None if spec.categories is None else tuple(renaming[c] for c in spec.categories)
    schema[j] = FeatureSpec(spec.name, spec.kind, declared)
    return Dataset(schema, [rename(x) for x in table.rows], table.labels), rename


def model_for(kind, stats, table):
    if kind == "knn":
        return train_knn_classifier(stats, table, k=3)
    return train_logistic(stats, table, epochs=20)


@settings(max_examples=100, deadline=None)
@given(renamed_problems())
def test_renaming_one_feature_s_labels(problem):
    table, x0, weights, kind, j, renaming = problem
    other, rename = renamed(table, j, renaming)
    restore = {new: old for old, new in renaming.items()}
    stats, other_stats = fit_stats(table), fit_stats(other)
    ctx = SearchContext(table, stats, model_for(kind, stats, table), weights, hash_scorer)
    moved = SearchContext(other, other_stats, model_for(kind, other_stats, other), weights,
                          lambda x: hash_scorer(x[:j] + (restore[x[j]],) + x[j + 1:]))
    for explain in ALL_EXPLAINERS.values():
        expl, got = explain(x0, ctx), explain(rename(x0), moved)
        assert outcome(got) == outcome(expl, rename)
        assert metrics(compute_metrics(got, moved)) == metrics(compute_metrics(expl, ctx))


@st.composite
def extended_problems(draw):
    """A labeled random table, a source, weights, a model kind and the rows to append, by index."""
    table, _, x0, weights, _ = draw(scaled_problems())
    n = len(table)
    kind = draw(st.sampled_from(("knn", "logistic") if n >= 3 else ("logistic",)))
    return table, x0, weights, kind, draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))


@settings(max_examples=100, deadline=None)
@given(extended_problems())
def test_appending_copies_of_training_rows(problem):
    table, x0, weights, kind, copies = problem
    longer = Dataset(table.schema, [*table.rows, *(table.rows[i] for i in copies)],
                     [*table.labels, *(table.labels[i] for i in copies)])
    stats = fit_stats(table)
    model = model_for(kind, stats, table)
    ctx = SearchContext(table, stats, model, weights, hash_scorer)
    extended = SearchContext(longer, stats, model, weights, hash_scorer)
    for explain in ALL_EXPLAINERS.values():
        assert outcome(explain(x0, extended)) == outcome(explain(x0, ctx))
