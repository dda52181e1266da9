"""Hypothesis strategies and scalar references shared by the property tests."""

import numpy as np
from hypothesis import strategies as st

from nicecf.distance import heom
from nicecf.tabular import Dataset, FeatureKind, FeatureSpec

NUMBERS = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
# Few distinct values, so that many rows lie at equal distances.
FEW_NUMBERS = st.sampled_from((0.0, 0.5, 1.0, 2.0))
CATEGORIES = ("a", "b", "c")


@st.composite
def mixed_tables(draw, min_rows=2, max_rows=10, numbers=NUMBERS):
    """A table over a random mixed schema, plus one instance over the same schema.

    Some numerical features are constant, so zero range and zero std both
    occur. The extra instance may repeat a value of the table or carry a
    number or category it never saw. Numbers are drawn from ``numbers``.
    """
    kinds = draw(st.lists(st.sampled_from(("numerical", "constant", "categorical")),
                          min_size=1, max_size=5))
    n = draw(st.integers(min_rows, max_rows))
    schema, columns, extra = [], [], []
    for j, kind in enumerate(kinds):
        if kind == "categorical":
            schema.append(FeatureSpec(f"f{j}", FeatureKind.CATEGORICAL))
            column = draw(st.lists(st.sampled_from(CATEGORIES), min_size=n, max_size=n))
            extra.append(draw(st.sampled_from(CATEGORIES + ("unseen",))))
        else:
            schema.append(FeatureSpec(f"f{j}", FeatureKind.NUMERICAL))
            if kind == "constant":
                column = [draw(numbers)] * n
            else:
                column = draw(st.lists(numbers, min_size=n, max_size=n))
            extra.append(draw(st.one_of(st.sampled_from(column), numbers)))
        columns.append(column)
    rows = [tuple(column[i] for column in columns) for i in range(n)]
    return Dataset(schema, rows), tuple(extra)


@st.composite
def knn_problems(draw):
    """A labeled random table, a k that fits it, weights, and a batch to score.

    Ties in distance are frequent, since numbers may come from a small set.
    The batch holds greedy-search candidates (the extra instance with one
    feature copied from a table row), plus repeats of those, of table rows
    and of the extra instance, which may carry unseen values, in any order.
    """
    table, extra = draw(mixed_tables(numbers=draw(st.sampled_from((NUMBERS, FEW_NUMBERS)))))
    n = len(table)
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    table = Dataset(table.schema, table.rows, labels)
    k = draw(st.sampled_from([k for k in (1, 3, 5) if k <= n]))
    m = len(extra)
    weights = draw(st.none() | st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m))
    target = draw(st.sampled_from(table.rows))
    candidates = [extra[:j] + (target[j],) + extra[j + 1 :]
                  for j in range(m) if extra[j] != target[j]]
    pool = candidates + list(table.rows) + [extra]
    batch = draw(st.permutations(candidates + draw(st.lists(st.sampled_from(pool), max_size=12))))
    return table, k, weights, batch


def nearest_order(stats, x, table, weights=None):
    """Every row index of ``table``, sorted by (scalar ``heom`` from ``x``, row index)."""
    d = [heom(stats, x, row, weights) for row in table.rows]
    return sorted(range(len(d)), key=lambda i: (d[i], i))


def knn_reference_score(stats, x, table, k, weights=None):
    """Mean label of the k rows nearest to ``x`` under ``nearest_order``."""
    nearest = nearest_order(stats, x, table, weights)[:k]
    return float(np.mean(np.asarray([table.labels[i] for i in nearest], dtype=np.float64)))
