"""Deterministic synthetic datasets for tests, demos, and benchmarks.

Rows are drawn from two class-conditional distributions: numerical features
from jittered class centers a fixed separation apart, categorical features
from class-skewed frequency tables. All randomness flows through the
package's deterministic generator, so a seed fully defines the dataset.
"""

from __future__ import annotations

import itertools
import numbers
import string
import sys
from pathlib import Path

from .errors import ConfigError
from .rng import SplitMix64
from .tabular import Dataset, FeatureKind, FeatureSpec, Instance


def _finite_real(v) -> bool:
    """Whether ``v`` is a real number other than a bool that a float holds finitely."""
    return not isinstance(v, bool) and isinstance(v, numbers.Real) and abs(v) <= sys.float_info.max


def make_dataset(
    n_rows: int,
    n_num: int,
    n_cat: int,
    seed: int,
    noise: float = 0.0,
    n_categories: int = 3,
    separation: float = 1.0,
    quantize: float | None = None,
) -> Dataset:
    """Labeled two-class dataset with ``n_num`` numerical and ``n_cat`` categorical features.

    Each row is of class 0 or 1 with equal odds. ``noise`` flips each label
    with that probability (producing genuinely misclassified rows under any
    accurate model). ``separation`` is the gap between class centers;
    ``quantize`` snaps numerical values to that grid step, which makes
    duplicate values (and near-duplicate rows) common.
    """
    counts = (n_rows, n_num, n_cat, n_categories)
    if any(isinstance(c, bool) or not isinstance(c, numbers.Integral) for c in counts):
        raise ConfigError(f"counts must be integers, got {counts!r}")
    if n_rows < 1 or n_num < 0 or n_cat < 0 or n_num + n_cat < 1:
        raise ConfigError("need at least one row and one feature")
    if not (_finite_real(noise) and 0.0 <= noise <= 1.0):
        raise ConfigError("noise must be in [0, 1]")
    if not _finite_real(separation):
        raise ConfigError("separation must be a finite number")
    if n_categories < 2 or n_categories > len(string.ascii_lowercase):
        raise ConfigError("n_categories must be between 2 and 26")
    if quantize is not None and not (_finite_real(quantize) and quantize > 0.0):
        raise ConfigError("quantize must be a positive step")
    rng = SplitMix64(seed)
    centers0 = [rng.uniform(0.0, 2.0) for _ in range(n_num)]
    centers1 = [c + separation for c in centers0]
    levels = tuple(string.ascii_lowercase[:n_categories])
    # Class-skewed category weights: class 0 prefers early levels, class 1
    # late ones, with full overlap so the signal is probabilistic.
    down = [float(w) for w in range(n_categories, 0, -1)]
    up = list(reversed(down))
    total = sum(down)
    cum0 = list(itertools.accumulate(w / total for w in down))
    cum1 = list(itertools.accumulate(w / total for w in up))

    schema = [FeatureSpec(f"num{j}", FeatureKind.NUMERICAL) for j in range(n_num)]
    schema += [
        FeatureSpec(f"cat{j}", FeatureKind.CATEGORICAL, levels) for j in range(n_cat)
    ]
    rows: list[Instance] = []
    labels: list[int] = []
    for _ in range(n_rows):
        cls = 1 if rng.uniform() < 0.5 else 0
        flip = rng.uniform() < noise
        label = 1 - cls if flip else cls
        values: list = []
        for j in range(n_num):
            center = centers1[j] if cls == 1 else centers0[j]
            v = center + rng.uniform(-0.6, 0.6)
            if quantize is not None:
                v = round(v / quantize) * quantize
            values.append(v)
        cum = cum1 if cls == 1 else cum0
        for _ in range(n_cat):
            u = rng.uniform()
            pick = 0
            while pick < n_categories - 1 and u >= cum[pick]:
                pick += 1
            values.append(levels[pick])
        rows.append(tuple(values))
        labels.append(label)
    return Dataset(schema, rows, labels)


def save_dataset(
    dataset: Dataset, schema_path: str | Path, csv_path: str | Path
) -> None:
    """Write a dataset as a schema JSON plus CSV pair readable by load_dataset.

    Categorical features are declared with their declared set, or else with
    the categories observed in the data; numbers with full float precision.
    """
    import csv as csv_mod
    import json

    features = []
    for spec, column in zip(dataset.schema, dataset.columns()):
        entry: dict = {"name": spec.name, "kind": spec.kind.value}
        if spec.kind is FeatureKind.CATEGORICAL:
            # A declared set holds every observed label; else the column's mapping lists them.
            entry["categories"] = sorted(set(spec.categories or column[1]))
        features.append(entry)
    label_name = "label" if dataset.labels is not None else None
    Path(schema_path).write_text(json.dumps({"features": features, "label": label_name}),
                                 encoding="utf-8")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv_mod.writer(fh)
        header = [s.name for s in dataset.schema]
        if label_name:
            header.append(label_name)
        writer.writerow(header)
        for i, row in enumerate(dataset.rows):
            cells = [v if isinstance(v, str) else repr(float(v)) for v in row]
            if dataset.labels is not None:
                cells.append(str(dataset.labels[i]))
            writer.writerow(cells)
