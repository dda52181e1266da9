"""Shared fixtures: small datasets, a scriptable classifier, result reporting."""

import numpy as np
import pytest
from hypothesis import settings

from nicecf.model import ClassifierHandle
from nicecf.synthetic import make_dataset
from nicecf.tabular import Dataset, FeatureKind, FeatureSpec, fit_stats

# Every property test draws the same examples on every run and in every
# checkout: no random draws, no example database to replay.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# Populated by the acceptance tests; rendered after the run so the lines
# survive output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance checks")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


class ScriptedModel(ClassifierHandle):
    """Returns a fixed probability per instance, with an optional default.

    Lets a test pin the exact score of every instance a search will visit.
    """

    def __init__(self, table, default=None):
        self.table = dict(table)
        self.default = default

    def score_batch(self, xs):
        out = np.empty(len(xs), dtype=np.float64)
        for i, x in enumerate(xs):
            key = tuple(x)
            if key in self.table:
                out[i] = self.table[key]
            elif self.default is not None:
                out[i] = self.default
            else:
                raise KeyError(f"no scripted score for {key}")
        return out


@pytest.fixture
def scripted_model_cls():
    return ScriptedModel


@pytest.fixture
def mixed_dataset():
    """120 rows, 2 numerical + 2 categorical features, mild label noise."""
    return make_dataset(120, 2, 2, seed=31, noise=0.05)


@pytest.fixture
def quantized_dataset():
    """Grid-valued numerics so near-duplicate cross-class row pairs exist."""
    return make_dataset(150, 2, 3, seed=17, noise=0.02, quantize=0.5, n_categories=2)


@pytest.fixture
def tiny_dataset():
    """Four hand-written rows over one numerical and one categorical feature."""
    schema = [
        FeatureSpec("amount", FeatureKind.NUMERICAL),
        FeatureSpec("color", FeatureKind.CATEGORICAL),
    ]
    rows = [
        (10.0, "red"),
        (20.0, "blue"),
        (30.0, "red"),
        (40.0, "green"),
    ]
    return Dataset(schema, rows, labels=[0, 0, 1, 1])


@pytest.fixture
def tiny_stats(tiny_dataset):
    return fit_stats(tiny_dataset)
