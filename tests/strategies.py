"""Hypothesis strategies and scalar references shared by the property tests."""

import math

import numpy as np
from hypothesis import strategies as st

from nicecf.distance import heom
from nicecf.tabular import Dataset, FeatureKind, FeatureSpec

NUMBERS = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
# Few distinct values, so that many rows lie at equal distances.
FEW_NUMBERS = st.sampled_from((0.0, 0.5, 1.0, 2.0))
# Magnitudes from 5e-324 to 1e300, so that ranges and distances run from
# subnormal to too large for a float.
WIDE_NUMBERS = st.one_of(st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
                         st.sampled_from((0.0, 5e-324, 1e-300, 1e300)))
# Ints are numbers too; they must encode as their float values do.
INTS_OR_FLOATS = st.one_of(NUMBERS, st.integers(-1000, 1000))
CATEGORIES = ("a", "b", "c")
# The category set a schema may declare: the table's labels plus one it never holds.
DECLARED = CATEGORIES + ("unseen",)


@st.composite
def mixed_tables(draw, min_rows=2, max_rows=10, numbers=NUMBERS):
    """A table over a random mixed schema, plus one instance over the same schema.

    Some numerical features are constant, so zero range and zero std both
    occur. Some categorical features declare the category set ``DECLARED``.
    The extra instance may repeat a value of the table or carry a number or
    category it never saw, always one the schema allows. Numbers are drawn
    from ``numbers``.
    """
    kinds = draw(st.lists(st.sampled_from(("numerical", "constant", "categorical")),
                          min_size=1, max_size=5))
    n = draw(st.integers(min_rows, max_rows))
    schema, columns, extra = [], [], []
    for j, kind in enumerate(kinds):
        if kind == "categorical":
            declared = DECLARED if draw(st.booleans()) else None
            schema.append(FeatureSpec(f"f{j}", FeatureKind.CATEGORICAL, declared))
            column = draw(st.lists(st.sampled_from(CATEGORIES), min_size=n, max_size=n))
            extra.append(draw(st.sampled_from(DECLARED)))
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


# Values that break the row rule, by feature kind, each with the message
# that names it (the feature name goes into the braces).
NOT_A_NUMBER = "expected a number for '{}'"
NOT_A_LABEL = "expected a category label for '{}'"
BAD_NUMERICAL = (
    ("1.5", NOT_A_NUMBER), (True, NOT_A_NUMBER), (None, NOT_A_NUMBER),
    (np.int64(1), NOT_A_NUMBER), (math.nan, "non-finite value nan for '{}'"),
    (math.inf, "non-finite value inf for '{}'"), (-math.inf, "non-finite value -inf for '{}'"),
    (10**400, "integer out of float range for '{}'"),
)
BAD_CATEGORICAL = ((1.0, NOT_A_LABEL), (2, NOT_A_LABEL), (np.float64(0.5), NOT_A_LABEL))


@st.composite
def rows_with_one_bad_value(draw):
    """A labeled random table, a row that breaks the row rule, and its message.

    The row is a table row either one value short or one too long (feature
    name None), or with the value at a random position replaced by one
    drawn from ``BAD_NUMERICAL`` or ``BAD_CATEGORICAL``, by that feature's
    kind, or by a label outside the feature's declared category set when it
    has one. Returns (table, row, feature name, message).
    """
    table, _ = draw(mixed_tables())
    n = len(table)
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    table = Dataset(table.schema, table.rows, labels)
    row = draw(st.sampled_from(table.rows))
    if draw(st.integers(0, 3)) == 0:
        bad = row[:-1] if draw(st.booleans()) else row + (row[0],)
        return table, bad, None, f"row has {len(bad)} values, schema has {len(row)}"
    j = draw(st.integers(0, len(row) - 1))
    spec = table.schema[j]
    bad = BAD_NUMERICAL if spec.kind is FeatureKind.NUMERICAL else BAD_CATEGORICAL
    value, message = draw(st.sampled_from(bad))
    message = message.format(spec.name)
    if spec.categories is not None and draw(st.booleans()):
        value = draw(st.text(max_size=3).filter(lambda v: v not in spec.categories))
        message = f"unknown category '{value}' for '{spec.name}'"
    return table, row[:j] + (value,) + row[j + 1:], spec.name, message


@st.composite
def knn_problems(draw):
    """A labeled random table, a k that fits it, and a batch to score.

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
    target = draw(st.sampled_from(table.rows))
    candidates = [extra[:j] + (target[j],) + extra[j + 1 :]
                  for j in range(m) if extra[j] != target[j]]
    pool = candidates + list(table.rows) + [extra]
    batch = draw(st.permutations(candidates + draw(st.lists(st.sampled_from(pool), max_size=12))))
    return table, k, batch


@st.composite
def swap_problems(draw, numbers=NUMBERS):
    """A labeled random table, plus a greedy-search step to score over it.

    Returns (table, current, target, features). ``current`` is a table
    row with some values replaced by the extra instance's, which may be
    numbers outside the table's range or a category it lacks. ``target`` is
    a table row.
    ``features`` may skip, repeat or reorder positions. Numbers are drawn
    from ``numbers``.
    """
    table, extra = draw(mixed_tables(numbers=numbers))
    n, m = len(table), len(extra)
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    table = Dataset(table.schema, table.rows, labels)
    row = draw(st.sampled_from(table.rows))
    replace = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    current = tuple(extra[j] if replace[j] else row[j] for j in range(m))
    target = draw(st.sampled_from(table.rows))
    features = draw(st.lists(st.integers(0, m - 1), max_size=2 * m))
    return table, current, target, features


def nearest_order(stats, x, table, weights=None):
    """Every row index of ``table``, sorted by (scalar ``heom`` from ``x``, row index)."""
    d = [heom(stats, x, row, weights) for row in table.rows]
    return sorted(range(len(d)), key=lambda i: (d[i], i))


def knn_reference_score(stats, x, table, k):
    """Mean label of the k rows nearest to ``x`` under unweighted ``nearest_order``."""
    nearest = nearest_order(stats, x, table)[:k]
    return float(np.mean(np.asarray([table.labels[i] for i in nearest], dtype=np.float64)))
