import json
import math
import re
import statistics

import numpy as np
import pytest
from hypothesis import given, settings

from nicecf.errors import ConfigError, EncodeError, IngestError, StatsError
from nicecf.tabular import (
    Dataset,
    FeatureKind,
    FeatureSpec,
    FeatureStats,
    _EncodingPlan,
    encode,
    encode_batch,
    fit_stats,
    load_dataset,
    load_schema,
    split,
)
from strategies import mixed_tables


def write_pair(tmp_path, schema_doc, csv_text):
    schema = tmp_path / "schema.json"
    data = tmp_path / "data.csv"
    schema.write_text(json.dumps(schema_doc))
    data.write_text(csv_text)
    return schema, data


BASIC_SCHEMA = {
    "features": [
        {"name": "age", "kind": "numerical"},
        {"name": "color", "kind": "categorical"},
    ],
    "label": "label",
}


class TestLoadDataset:
    def test_loads_rows_and_labels(self, tmp_path):
        schema, data = write_pair(
            tmp_path, BASIC_SCHEMA, "age,color,label\n30,red,0\n40,blue,1\n"
        )
        ds = load_dataset(schema, data)
        assert ds.rows == ((30.0, "red"), (40.0, "blue"))
        assert ds.labels == (0, 1)

    def test_no_label_column(self, tmp_path):
        doc = {"features": BASIC_SCHEMA["features"], "label": None}
        schema, data = write_pair(tmp_path, doc, "age,color\n30,red\n")
        ds = load_dataset(schema, data)
        assert ds.labels is None

    def test_header_mismatch(self, tmp_path):
        schema, data = write_pair(
            tmp_path, BASIC_SCHEMA, "color,age,label\nred,30,0\n"
        )
        with pytest.raises(IngestError):
            load_dataset(schema, data)

    def test_bad_number_reports_row_and_column(self, tmp_path):
        schema, data = write_pair(
            tmp_path, BASIC_SCHEMA, "age,color,label\n30,red,0\noops,blue,1\n"
        )
        with pytest.raises(IngestError) as err:
            load_dataset(schema, data)
        assert err.value.row == 1
        assert err.value.column == "age"

    def test_non_finite_rejected(self, tmp_path):
        schema, data = write_pair(
            tmp_path, BASIC_SCHEMA, "age,color,label\nnan,red,0\n"
        )
        with pytest.raises(IngestError) as err:
            load_dataset(schema, data)
        assert (err.value.row, err.value.column) == (0, "age")

    def test_missing_cell_rejected(self, tmp_path):
        schema, data = write_pair(
            tmp_path, BASIC_SCHEMA, "age,color,label\n30,,0\n"
        )
        with pytest.raises(IngestError) as err:
            load_dataset(schema, data)
        assert err.value.column == "color"

    def test_bad_label_rejected(self, tmp_path):
        schema, data = write_pair(
            tmp_path, BASIC_SCHEMA, "age,color,label\n30,red,2\n"
        )
        with pytest.raises(IngestError):
            load_dataset(schema, data)

    def test_declared_categories_enforced(self, tmp_path):
        doc = {
            "features": [
                {"name": "age", "kind": "numerical"},
                {"name": "color", "kind": "categorical", "categories": ["red", "blue"]},
            ],
            "label": "label",
        }
        schema, data = write_pair(tmp_path, doc, "age,color,label\n30,green,0\n")
        with pytest.raises(IngestError) as err:
            load_dataset(schema, data)
        assert (err.value.row, err.value.column) == (0, "color")

    def test_repeated_feature_name_rejected(self, tmp_path):
        doc = {"features": [{"name": "a", "kind": "numerical"},
                            {"name": "a", "kind": "categorical"}], "label": "y"}
        schema, data = write_pair(tmp_path, doc, "a,a,y\n1,b,0\n")
        with pytest.raises(IngestError, match="'a'"):
            load_dataset(schema, data)

    @pytest.mark.parametrize("name", [5, ["a"]])
    def test_non_string_feature_name_rejected(self, tmp_path, name):
        doc = {"features": [{"name": name, "kind": "numerical"}], "label": None}
        schema, data = write_pair(tmp_path, doc, "a\n1\n")
        with pytest.raises(IngestError, match="bad feature entry"):
            load_dataset(schema, data)

    def test_label_reusing_feature_name_rejected(self, tmp_path):
        doc = {"features": [{"name": "a", "kind": "numerical"},
                            {"name": "b", "kind": "numerical"}], "label": "a"}
        schema, data = write_pair(tmp_path, doc, "a,b,a\n1,2,0\n")
        with pytest.raises(IngestError, match="'a'"):
            load_dataset(schema, data)

    def test_malformed_schema_json(self, tmp_path):
        schema = tmp_path / "schema.json"
        schema.write_text("{not json")
        data = tmp_path / "data.csv"
        data.write_text("age\n1\n")
        with pytest.raises(IngestError):
            load_dataset(schema, data)

    @pytest.mark.parametrize("features", [
        ["age", "color"], [None], [5], "age", {"name": "age"}, None,
        [{"name": "age", "kind": "numerical", "categories": 5}],
        [{"name": "age", "kind": "categorical", "categories": "rb"}],
        [{"name": "age", "kind": "categorical", "categories": ["r", 1]}],
    ])
    def test_malformed_feature_entries(self, tmp_path, features):
        # The one row would load under either categorical entry read loosely.
        schema, data = write_pair(tmp_path, {"features": features}, "age\nr\n")
        with pytest.raises(IngestError):
            load_dataset(schema, data)

    def test_empty_csv(self, tmp_path):
        schema, data = write_pair(tmp_path, BASIC_SCHEMA, "")
        with pytest.raises(IngestError):
            load_dataset(schema, data)

    @pytest.mark.parametrize("label", [5, ["label"]])
    def test_non_string_label_name_rejected(self, tmp_path, label):
        schema, data = write_pair(tmp_path, {**BASIC_SCHEMA, "label": label},
                                  "age,color,label\n30,red,0\n")
        with pytest.raises(IngestError, match="^schema 'label' must be a string or null$"):
            load_dataset(schema, data)

    # With the label name "", the first CSV failed on its header and the second
    # loaded as unlabeled.
    @pytest.mark.parametrize("csv_text", ["f0,\n1.0,1\n", "f0\n1.0\n"])
    def test_empty_label_name_rejected(self, tmp_path, csv_text):
        doc = {"features": [{"name": "f0", "kind": "numerical"}], "label": ""}
        schema, data = write_pair(tmp_path, doc, csv_text)
        message = "^schema 'label' must not be empty; null means no label$"
        with pytest.raises(IngestError, match=message):
            load_schema(schema)
        with pytest.raises(IngestError, match=message):
            load_dataset(schema, data)

    @pytest.mark.parametrize("lines, message", [
        ("30,red,0\n40,blue", "expected 3 cells, got 2 (row=1)"),
        ("30,red,0,1", "expected 3 cells, got 4 (row=0)"),
        ("30,red,0\n40,blue, ", "missing value (row=1, column='label')"),
        ("30,red,yes", "label must be 0 or 1, got 'yes' (row=0, column='label')"),
        ("30,red,0.5", "label must be 0 or 1, got '0.5' (row=0, column='label')"),
    ])
    def test_bad_row_reports_its_location(self, tmp_path, lines, message):
        schema, data = write_pair(tmp_path, BASIC_SCHEMA, f"age,color,label\n{lines}\n")
        with pytest.raises(IngestError, match=f"^{re.escape(message)}$"):
            load_dataset(schema, data)


class TestFitStats:
    def test_numerical_values(self, tiny_dataset):
        stats = fit_stats(tiny_dataset)
        amount = stats[0]
        assert amount.min == 10.0
        assert amount.max == 40.0
        assert amount.range == 30.0
        assert amount.mean == 25.0
        # population std of [10, 20, 30, 40]
        assert amount.std == pytest.approx(math.sqrt(125.0))

    @pytest.mark.parametrize("value, n", [(0.1, 3), (0.7, 6), (3.3, 7)])
    def test_constant_column(self, value, n):
        # The float mean of [0.1] * 3 rounds above 0.1, and the raw std of
        # each of these columns is about 1e-16, not 0.
        ds = Dataset([FeatureSpec("x", FeatureKind.NUMERICAL)], [(value,)] * n)
        s = fit_stats(ds)[0]
        assert (s.min, s.max, s.range, s.mean, s.std) == (value, value, 0.0, value, 0.0)

    def test_categories_sorted_and_mode(self, tiny_dataset):
        stats = fit_stats(tiny_dataset)
        color = stats[1]
        assert color.categories == ("blue", "green", "red")
        assert color.mode == "red"

    def test_mode_tie_breaks_lexicographically(self):
        schema = [FeatureSpec("c", FeatureKind.CATEGORICAL)]
        ds = Dataset(schema, [("b",), ("a",), ("b",), ("a",)])
        assert fit_stats(ds)[0].mode == "a"

    def test_empty_dataset_rejected(self):
        ds = Dataset([FeatureSpec("x", FeatureKind.NUMERICAL)], [])
        with pytest.raises(StatsError):
            fit_stats(ds)

    def test_stats_invariants_enforced(self):
        with pytest.raises(StatsError):
            FeatureStats(name="x", kind=FeatureKind.NUMERICAL, min=1.0, max=0.0,
                         range=-1.0, mean=0.5, std=0.1)
        with pytest.raises(StatsError):
            FeatureStats(name="c", kind=FeatureKind.CATEGORICAL,
                         categories=("a",), mode="b")

    # The square of 1e300 overflows, and the sum of 1.5e308 and 1.6e308 does;
    # the true mean and std fit a float all the same.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("column", [(0.0, 1e300, 1.0), (1.5e308, 1.6e308), (-1e300, -3e300)])
    def test_mean_and_std_of_huge_values_are_finite(self, column):
        s = fit_stats(Dataset([FeatureSpec("x", FeatureKind.NUMERICAL)], [(v,) for v in column]))[0]
        assert s.mean == pytest.approx(statistics.mean(column), rel=1e-12)
        assert s.std == pytest.approx(statistics.pstdev(column), rel=1e-12)

    # The squares of these deviations underflow, yet the true std is a normal float.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("column", [(0.0, 1e-300, 1e-300, 0.0), (0.0, 1e-170), (0.0, 1e-160)])
    def test_mean_and_std_of_tiny_values_are_not_lost(self, column):
        s = fit_stats(Dataset([FeatureSpec("x", FeatureKind.NUMERICAL)], [(v,) for v in column]))[0]
        assert s.mean == pytest.approx(statistics.mean(column), rel=1e-12, abs=0.0)
        assert s.std == pytest.approx(statistics.pstdev(column), rel=1e-12, abs=0.0)

    def test_ordinary_columns_keep_numpys_bits(self, mixed_dataset):
        for s, column in zip(fit_stats(mixed_dataset), mixed_dataset.columns()):
            if s.kind is FeatureKind.NUMERICAL:
                assert (s.mean, s.std) == (float(column.mean()), float(column.std()))

    @pytest.mark.filterwarnings("error")
    def test_range_too_large_for_a_float_rejected(self):
        ds = Dataset([FeatureSpec("x", FeatureKind.NUMERICAL)], [(-1.5e308,), (1.5e308,)])
        with pytest.raises(StatsError, match="non-finite range inf for 'x'"):
            fit_stats(ds)
        for span in (math.inf, math.nan):
            with pytest.raises(StatsError, match=f"non-finite range {span} for 'x'"):
                FeatureStats(name="x", kind=FeatureKind.NUMERICAL, min=0.0, max=1.0,
                             range=span, mean=0.5, std=0.1)


class TestSplit:
    def test_sizes(self, mixed_dataset):
        train, test = split(mixed_dataset, 0.2, seed=0)
        assert len(train) == math.ceil(len(mixed_dataset) * 0.8)
        assert len(train) + len(test) == len(mixed_dataset)

    def test_partition_preserves_rows(self, mixed_dataset):
        train, test = split(mixed_dataset, 0.3, seed=4)
        combined = sorted(train.rows + test.rows)
        assert combined == sorted(mixed_dataset.rows)

    def test_deterministic(self, mixed_dataset):
        a = split(mixed_dataset, 0.25, seed=9)
        b = split(mixed_dataset, 0.25, seed=9)
        assert a[0].rows == b[0].rows
        assert a[1].rows == b[1].rows

    def test_seed_changes_assignment(self, mixed_dataset):
        a = split(mixed_dataset, 0.25, seed=1)
        b = split(mixed_dataset, 0.25, seed=2)
        assert a[0].rows != b[0].rows

    def test_labels_follow_rows(self, mixed_dataset):
        train, _ = split(mixed_dataset, 0.2, seed=0)
        original = {row: label for row, label in zip(mixed_dataset.rows, mixed_dataset.labels)}
        for row, label in zip(train.rows, train.labels):
            assert original[row] == label

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5, "0.2", None, math.nan])
    def test_bad_fraction(self, mixed_dataset, fraction):
        with pytest.raises(ConfigError, match="^test_fraction must be in"):
            split(mixed_dataset, fraction, seed=0)

    @pytest.mark.parametrize("seed, numpy_seed", [
        (3, np.int64(3)), (2**64 - 1, np.uint64(2**64 - 1)),
    ])
    def test_numpy_integer_seed_gives_the_plain_split(self, mixed_dataset, seed, numpy_seed):
        got, plain = split(mixed_dataset, 0.25, numpy_seed), split(mixed_dataset, 0.25, seed)
        assert [(d.rows, d.labels) for d in got] == [(d.rows, d.labels) for d in plain]

    @pytest.mark.parametrize("seed", [1.5, True, "3", None])
    def test_bad_seed(self, mixed_dataset, seed):
        with pytest.raises(ConfigError, match="^seed must be an integer, got "):
            split(mixed_dataset, 0.25, seed)

    def test_empty_side_rejected(self, mixed_dataset):
        # ceil(120 * 0.999) is 120: no test row is left.
        with pytest.raises(ConfigError, match="both must be non-empty"):
            split(mixed_dataset, 0.001, seed=0)
        with pytest.raises(ConfigError, match="both must be non-empty"):
            split(Dataset(mixed_dataset.schema, []), 0.5, seed=0)


class TestEncode:
    def test_width(self, tiny_stats):
        assert _EncodingPlan(tiny_stats).width == 1 + 3

    def test_values(self, tiny_stats):
        v = encode(tiny_stats, (25.0, "green"))
        assert v.tolist() == [0.5, 0.0, 1.0, 0.0]

    def test_out_of_range_not_clipped(self, tiny_stats):
        v = encode(tiny_stats, (70.0, "red"))
        assert v[0] == 2.0

    def test_zero_range_emits_zero(self):
        schema = [FeatureSpec("k", FeatureKind.NUMERICAL)]
        ds = Dataset(schema, [(5.0,), (5.0,)])
        stats = fit_stats(ds)
        assert encode(stats, (5.0,)).tolist() == [0.0]
        assert encode(stats, (9.0,)).tolist() == [0.0]

    def test_unseen_category_encodes_as_zeros(self, tiny_stats):
        # Only a schema's declared set may reject a label; to the statistics
        # a label training never held is no slot, as HEOM counts it a mismatch.
        assert encode(tiny_stats, (25.0, "purple")).tolist() == [0.5, 0.0, 0.0, 0.0]
        assert encode_batch(tiny_stats, [(25.0, "purple"), (25.0, "green")]).tolist() == [
            [0.5, 0.0, 0.0, 0.0], [0.5, 0.0, 1.0, 0.0]]

    def test_length_mismatch_rejected(self, tiny_stats):
        with pytest.raises(EncodeError):
            encode(tiny_stats, (25.0,))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_rejected(self, tiny_stats, value):
        with pytest.raises(EncodeError, match="non-finite"):
            encode(tiny_stats, (value, "red"))
        with pytest.raises(EncodeError, match="non-finite"):
            encode_batch(tiny_stats, [(25.0, "red"), (value, "red")])

    def test_batch_matches_single(self, mixed_dataset):
        stats = fit_stats(mixed_dataset)
        X = encode_batch(stats, mixed_dataset.rows)
        for i, row in enumerate(mixed_dataset.rows):
            assert np.array_equal(X[i], encode(stats, row))

    @settings(max_examples=200, deadline=None)
    @given(mixed_tables())
    def test_batch_matches_single_bitwise_on_random_schemas(self, table_and_x):
        table, extra = table_and_x
        stats = fit_stats(table)
        batch = [*table.rows, extra]
        X = encode_batch(stats, batch)
        for i, x in enumerate(batch):
            assert X[i].tobytes() == encode(stats, x).tobytes()


class TestDataset:
    def test_row_validation(self):
        schema = [FeatureSpec("x", FeatureKind.NUMERICAL)]
        with pytest.raises(IngestError):
            Dataset(schema, [("not a number",)])

    @pytest.mark.parametrize("bad", [2, -1, True])
    def test_label_outside_zero_one_rejected(self, bad):
        schema = [FeatureSpec("x", FeatureKind.NUMERICAL)]
        with pytest.raises(IngestError) as err:
            Dataset(schema, [(1.0,), (2.0,), (3.0,)], labels=[0, bad, 1])
        assert err.value.row == 1

    def test_int_too_large_for_a_float_rejected(self):
        # The one row rule's branch that hypothesis reaches only when it draws 10**400.
        schema = [FeatureSpec("x", FeatureKind.NUMERICAL)]
        message = "integer out of float range for 'x'"
        with pytest.raises(IngestError, match=f"^{message} \\(row=1, column='x'\\)$"):
            Dataset(schema, [(1,), (10**400,)])
        stats = fit_stats(Dataset(schema, [(1,), (2.0,)]))
        with pytest.raises(EncodeError, match=f"^{message}$"):
            encode(stats, (-(10**400),))

    def test_label_length_mismatch(self):
        schema = [FeatureSpec("x", FeatureKind.NUMERICAL)]
        with pytest.raises(IngestError):
            Dataset(schema, [(1.0,)], labels=[0, 1])

    def test_columns_cache(self, tiny_dataset):
        cols = tiny_dataset.columns()
        assert cols is tiny_dataset.columns()
        assert cols[0].tolist() == [10.0, 20.0, 30.0, 40.0]
        codes, mapping = cols[1]
        assert [mapping[c] for c in ("red", "blue", "green")] == [0, 1, 2]
        assert codes.tolist() == [0, 1, 0, 2]

    def test_label_array_cache(self, tiny_dataset):
        labels = tiny_dataset.label_array()
        assert labels is tiny_dataset.label_array()
        assert labels.dtype == np.int64
        assert labels.tolist() == [0, 0, 1, 1]
        assert Dataset(tiny_dataset.schema, tiny_dataset.rows).label_array() is None


@pytest.mark.parametrize("row, column, location", [
    (2, None, " (row=2)"),
    (None, "a", " (column='a')"),
    (2, "a", " (row=2, column='a')"),
    (None, None, ""),
])
def test_ingest_error_names_only_the_known_location(row, column, location):
    error = IngestError("label must be 0 or 1, got 2", row=row, column=column)
    assert str(error) == "label must be 0 or 1, got 2" + location
    assert (error.row, error.column) == (row, column)
