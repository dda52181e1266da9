"""Metamorphic relations: a transformed input must give a predictably transformed output.

Scaling every cost weight by 2**k multiplies every weighted distance by
exactly 2**k, as long as no term overflows or becomes subnormal. So every
explainer keeps its nearest unlike neighbour, counterfactual, validity,
anchor and trace features, each proximity reward whose cost is above
``_EPSILON`` is multiplied by exactly 2**-k, sparsity and plausibility
rewards keep their bits, and the unweighted metrics do not move. The two
contexts share one training set, so their scans also read each other's term
stores, which keep unweighted terms and weight them as they are read.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from nicecf.distance import heom_feature
from nicecf.evaluation import compute_metrics
from nicecf.explainers import _EPSILON, SearchContext
from nicecf.model import train_logistic
from nicecf.tabular import Dataset, fit_stats
from strategies import FEW_NUMBERS, mixed_tables
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
