import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
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
    ({"noise": "0.1"}, "noise must be in [0, 1]"),
    ({"noise": None}, "noise must be in [0, 1]"),
    ({"n_rows": 10.5}, "counts must be integers, got (10.5, 2, 1, 3)"),
    ({"n_num": 2.0}, "counts must be integers, got (10, 2.0, 1, 3)"),
    ({"n_cat": "1"}, "counts must be integers, got (10, 2, '1', 3)"),
    ({"n_categories": True}, "counts must be integers, got (10, 2, 1, True)"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"noise": True}, "noise must be in [0, 1]"),
    ({"noise": 10**400}, "noise must be in [0, 1]"),
    ({"quantize": "0.5"}, "quantize must be a positive step"),
    ({"quantize": math.nan}, "quantize must be a positive step"),
    ({"quantize": math.inf}, "quantize must be a positive step"),
    ({"quantize": True}, "quantize must be a positive step"),
    ({"separation": "1"}, "separation must be a finite number"),
    ({"separation": math.inf}, "separation must be a finite number"),
    ({"separation": math.nan}, "separation must be a finite number"),
    ({"separation": True}, "separation must be a finite number"),
    ({"separation": 10**400}, "separation must be a finite number"),
])
def test_bad_arguments_rejected(change, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        make_dataset(**{"n_rows": 10, "n_num": 2, "n_cat": 1, "seed": 0, **change})


@pytest.mark.parametrize("seed, numpy_seed", [
    (3, np.int64(3)), (2**64 - 1, np.uint64(2**64 - 1)),
])
def test_numpy_integers_give_the_plain_dataset(seed, numpy_seed):
    plain = make_dataset(30, 2, 2, seed, noise=0.1, n_categories=4)
    got = make_dataset(np.int64(30), np.int32(2), np.uint8(2), numpy_seed, noise=0.1,
                       n_categories=np.int16(4))
    assert [s.categories for s in got.schema] == [s.categories for s in plain.schema]
    assert (got.rows, got.labels) == (plain.rows, plain.labels)
    assert all(type(v) is type(p) for row, prow in zip(got.rows, plain.rows)
               for v, p in zip(row, prow))


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


# Run where the locale's encoding is ASCII: saving and loading must not depend on it.
ROUND_TRIP = r"""
from nicecf.synthetic import save_dataset
from nicecf.tabular import Dataset, FeatureKind, FeatureSpec, load_dataset
data = Dataset([FeatureSpec("city", FeatureKind.CATEGORICAL)],
               [("Z\u00fcrich",), ("\u00c6r\u00f8",)], [0, 1])
save_dataset(data, "schema.json", "data.csv")
loaded = load_dataset("schema.json", "data.csv")
assert (loaded.rows, loaded.labels) == (data.rows, data.labels), loaded.rows
"""


def test_non_ascii_labels_round_trip_in_utf8_whatever_the_locale(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", ROUND_TRIP], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Z\u00fcrich" in (tmp_path / "data.csv").read_text(encoding="utf-8")
