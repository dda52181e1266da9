import re

import pytest

from nicecf.errors import ConfigError
from nicecf.synthetic import make_dataset, save_dataset
from nicecf.tabular import Dataset, FeatureKind, FeatureSpec, load_dataset, load_schema


@pytest.mark.parametrize("change, message", [
    ({"n_rows": 0}, "need at least one row and one feature"),
    ({"n_num": -1}, "need at least one row and one feature"),
    ({"n_num": 0, "n_cat": 0}, "need at least one row and one feature"),
    ({"noise": -0.1}, "noise must be in [0, 1]"),
    ({"noise": 1.5}, "noise must be in [0, 1]"),
    ({"n_categories": 1}, "n_categories must be between 2 and 26"),
    ({"n_categories": 27}, "n_categories must be between 2 and 26"),
    ({"quantize": 0.0}, "quantize must be a positive step"),
])
def test_bad_arguments_rejected(change, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        make_dataset(**{"n_rows": 10, "n_num": 2, "n_cat": 1, "seed": 0, **change})


def test_saved_pair_loads_back(tmp_path):
    schema = [FeatureSpec("x", FeatureKind.NUMERICAL),
              FeatureSpec("open", FeatureKind.CATEGORICAL),
              FeatureSpec("declared", FeatureKind.CATEGORICAL, ("z", "b", "a"))]
    data = Dataset(schema, [(0.1, "q", "b"), (1e-300, "p", "a"), (-2.5, "q", "b")], [1, 0, 1])
    files = tmp_path / "schema.json", tmp_path / "data.csv"
    save_dataset(data, *files)
    specs, label = load_schema(files[0])
    # Observed labels for an open feature; the whole declared set, even 'z', which no row holds.
    assert [s.categories for s in specs] == [None, ("p", "q"), ("a", "b", "z")]
    assert label == "label"
    loaded = load_dataset(*files)
    assert (loaded.rows, loaded.labels) == (data.rows, data.labels)
