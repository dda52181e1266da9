"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from nicecf.tabular import Dataset, FeatureKind, FeatureSpec

NUMBERS = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
CATEGORIES = ("a", "b", "c")


@st.composite
def mixed_tables(draw, min_rows=2, max_rows=10):
    """A table over a random mixed schema, plus one instance over the same schema.

    Some numerical features are constant, so zero range and zero std both
    occur. The extra instance may repeat a value of the table or carry a
    number or category it never saw.
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
                column = [draw(NUMBERS)] * n
            else:
                column = draw(st.lists(NUMBERS, min_size=n, max_size=n))
            extra.append(draw(st.one_of(st.sampled_from(column), NUMBERS)))
        columns.append(column)
    rows = [tuple(column[i] for column in columns) for i in range(n)]
    return Dataset(schema, rows), tuple(extra)
