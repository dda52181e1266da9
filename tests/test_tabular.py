import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

from nicecf.errors import ConfigError, EncodeError, IngestError, StatsError
from nicecf.tabular import (
    Dataset,
    FeatureKind,
    FeatureSpec,
    FeatureStats,
    encode,
    encode_batch,
    encoded_width,
    fit_stats,
    load_dataset,
    split,
    stats_from_dicts,
    stats_to_dicts,
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
        with pytest.raises(IngestError):
            load_dataset(schema, data)

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
        with pytest.raises(IngestError):
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

    def test_round_trip_through_dicts(self, tiny_stats):
        rebuilt = stats_from_dicts(stats_to_dicts(tiny_stats))
        assert rebuilt == list(tiny_stats)


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

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5])
    def test_bad_fraction(self, mixed_dataset, fraction):
        with pytest.raises(ConfigError):
            split(mixed_dataset, fraction, seed=0)


class TestEncode:
    def test_width(self, tiny_stats):
        assert encoded_width(tiny_stats) == 1 + 3

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

    def test_unseen_category_rejected(self, tiny_stats):
        with pytest.raises(EncodeError):
            encode(tiny_stats, (25.0, "purple"))

    def test_length_mismatch_rejected(self, tiny_stats):
        with pytest.raises(EncodeError):
            encode(tiny_stats, (25.0,))

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
        batch = list(table.rows)
        categorical = [(s, v) for s, v in zip(stats, extra) if s.kind is FeatureKind.CATEGORICAL]
        if all(v in s.categories for s, v in categorical):
            batch.append(extra)
        X = encode_batch(stats, batch)
        for i, x in enumerate(batch):
            assert X[i].tobytes() == encode(stats, x).tobytes()


class TestDataset:
    def test_row_validation(self):
        schema = [FeatureSpec("x", FeatureKind.NUMERICAL)]
        with pytest.raises(IngestError):
            Dataset(schema, [("not a number",)])

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
