"""Schema-driven tabular datasets: ingestion, statistics, splitting, encoding.

A dataset is an ordered list of mixed-type rows aligned to a schema of
categorical and numerical features. Statistics (min/max/range/mean/std for
numerical features, category set and mode for categorical ones) are always
fitted on the training split only and drive both the distance metric and the
numeric encoding used by the built-in classifiers and the autoencoder.

Encoding is min-max scaling to [0, 1] for numerical features (training range;
values outside the training range are NOT clipped) and one-hot over the
training category set for categorical features.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, EncodeError, IngestError, StatsError
from .rng import SplitMix64

# One feature value: a category label or a real number.
Value = str | float
# One row, aligned positionally to the schema.
Instance = tuple[Value, ...]


class FeatureKind(Enum):
    CATEGORICAL = "categorical"
    NUMERICAL = "numerical"


@dataclass(frozen=True)
class FeatureSpec:
    """Declared identity of one column: name, kind, optional closed category set.

    ``categories`` is only set when the schema file pre-declares the allowed
    labels; otherwise ingestion accepts any label and the category universe is
    established later by :func:`fit_stats` on the training split.
    """

    name: str
    kind: FeatureKind
    categories: tuple[str, ...] | None = None


@dataclass(frozen=True)
class FeatureStats:
    """Training statistics for one feature.

    Numerical: min/max/range/mean/std (population std). Categorical: the
    distinct observed labels in ascending order plus the most frequent label
    (ties broken toward the lexicographically smallest).
    """

    name: str
    kind: FeatureKind
    min: float = 0.0
    max: float = 0.0
    range: float = 0.0
    mean: float = 0.0
    std: float = 0.0
    categories: tuple[str, ...] = ()
    mode: str = ""

    def __post_init__(self):
        if self.kind is FeatureKind.NUMERICAL:
            if not (self.min <= self.mean <= self.max) or self.range < 0 or self.std < 0:
                raise StatsError(f"inconsistent numerical stats for '{self.name}'")
        else:
            if not self.categories or self.mode not in self.categories:
                raise StatsError(f"inconsistent categorical stats for '{self.name}'")


class Dataset:
    """Immutable collection of validated rows plus optional binary labels.

    Rows are stored as tuples in ingestion order. Numpy views of the columns
    and labels are built lazily for vectorized scans and shared by all readers;
    the object is safe to share across threads once constructed.
    """

    def __init__(
        self,
        schema: Sequence[FeatureSpec],
        rows: Sequence[Instance],
        labels: Sequence[int] | None = None,
    ):
        self.schema: tuple[FeatureSpec, ...] = tuple(schema)
        self.rows: tuple[Instance, ...] = tuple(tuple(r) for r in rows)
        self.labels: tuple[int, ...] | None = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != len(self.rows):
            raise IngestError("labels and rows have different lengths")
        for i, row in enumerate(self.rows):
            _check_row(self.schema, row, row_index=i)
        self._columns: list | None = None
        self._label_array: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def n_features(self) -> int:
        return len(self.schema)

    def columns(self) -> list:
        """Per-feature columnar views.

        Numerical feature -> float64 array. Categorical feature -> pair of
        (int32 code array, {label: code} mapping) local to this dataset.
        """
        if self._columns is None:
            cols = []
            for j, spec in enumerate(self.schema):
                values = [row[j] for row in self.rows]
                if spec.kind is FeatureKind.NUMERICAL:
                    cols.append(np.asarray(values, dtype=np.float64))
                else:
                    mapping: dict[str, int] = {}
                    codes = np.empty(len(values), dtype=np.int32)
                    for i, v in enumerate(values):
                        codes[i] = mapping.setdefault(v, len(mapping))
                    cols.append((codes, mapping))
            self._columns = cols
        return self._columns

    def label_array(self) -> np.ndarray | None:
        """The labels as an int64 array, built on first use; None when unlabeled."""
        if self._label_array is None and self.labels is not None:
            self._label_array = np.asarray(self.labels, dtype=np.int64)
        return self._label_array


def _check_row(schema: Sequence[FeatureSpec], row: Instance, row_index: int | None = None) -> None:
    if len(row) != len(schema):
        raise IngestError(
            f"row has {len(row)} values, schema has {len(schema)}", row=row_index
        )
    for spec, value in zip(schema, row):
        if spec.kind is FeatureKind.NUMERICAL:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise IngestError(
                    f"expected a number for '{spec.name}'", row=row_index, column=spec.name
                )
            if not math.isfinite(value):
                raise IngestError(
                    f"non-finite value for '{spec.name}'", row=row_index, column=spec.name
                )
        else:
            if not isinstance(value, str):
                raise IngestError(
                    f"expected a category label for '{spec.name}'",
                    row=row_index,
                    column=spec.name,
                )
            if spec.categories is not None and value not in spec.categories:
                raise IngestError(
                    f"unknown category '{value}' for '{spec.name}'",
                    row=row_index,
                    column=spec.name,
                )


def load_schema(schema_file: str | Path) -> tuple[list[FeatureSpec], str | None]:
    """Parse a schema JSON file into feature specs plus the label column name.

    Format: ``{"features": [{"name": ..., "kind": "categorical"|"numerical",
    "categories": [...]?}, ...], "label": str|null}``.
    """
    try:
        doc = json.loads(Path(schema_file).read_text())
    except json.JSONDecodeError as exc:
        raise IngestError(f"schema file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("features"), list):
        raise IngestError("schema file must be an object with a 'features' list")
    specs = []
    for entry in doc["features"]:
        if not isinstance(entry, dict):
            raise IngestError(f"bad feature entry in schema: {entry!r}")
        name = entry.get("name")
        kind = entry.get("kind")
        declared = entry.get("categories")
        if not name or kind not in ("categorical", "numerical") or not (
            declared is None
            or isinstance(declared, list) and all(isinstance(c, str) for c in declared)
        ):
            raise IngestError(f"bad feature entry in schema: {entry!r}")
        categories = tuple(declared) if declared is not None else None
        specs.append(FeatureSpec(name, FeatureKind(kind), categories))
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise IngestError("schema 'label' must be a string or null")
    return specs, label


def load_dataset(schema_file: str | Path, csv_file: str | Path) -> Dataset:
    """Read a header-first CSV validated against a schema file.

    The CSV header must list the schema's feature names in order, followed by
    the label column when the schema declares one. Empty cells are rejected;
    labels must be 0 or 1. Row order is preserved.
    """
    specs, label_name = load_schema(schema_file)
    expected_header = [s.name for s in specs] + ([label_name] if label_name else [])
    with open(csv_file, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError("CSV file is empty") from None
        if header != expected_header:
            raise IngestError(
                f"CSV header {header!r} does not match schema columns {expected_header!r}"
            )
        rows: list[Instance] = []
        labels: list[int] | None = [] if label_name else None
        for i, cells in enumerate(reader):
            if len(cells) != len(expected_header):
                raise IngestError(
                    f"expected {len(expected_header)} cells, got {len(cells)}", row=i
                )
            values: list[Value] = []
            for spec, cell in zip(specs, cells):
                cell = cell.strip()
                if cell == "":
                    raise IngestError("missing value", row=i, column=spec.name)
                if spec.kind is FeatureKind.NUMERICAL:
                    try:
                        number = float(cell)
                    except ValueError:
                        raise IngestError(
                            f"'{cell}' is not a number", row=i, column=spec.name
                        ) from None
                    if not math.isfinite(number):
                        raise IngestError("non-finite value", row=i, column=spec.name)
                    values.append(number)
                else:
                    if spec.categories is not None and cell not in spec.categories:
                        raise IngestError(
                            f"unknown category '{cell}'", row=i, column=spec.name
                        )
                    values.append(cell)
            if labels is not None:
                cell = cells[-1].strip()
                if cell == "":
                    raise IngestError("missing value", row=i, column=label_name)
                try:
                    label = int(cell)
                except ValueError:
                    label = -1
                if label not in (0, 1):
                    raise IngestError(
                        f"label must be 0 or 1, got '{cell}'", row=i, column=label_name
                    )
                labels.append(label)
            rows.append(tuple(values))
    return Dataset(specs, rows, labels)


def fit_stats(train: Dataset) -> list[FeatureStats]:
    """Per-feature training statistics; the category universe becomes closed.

    Mode ties break toward the lexicographically smallest label. Numerical
    std is the population standard deviation.
    """
    if len(train) == 0:
        raise StatsError("cannot fit statistics on an empty dataset")
    stats: list[FeatureStats] = []
    for j, spec in enumerate(train.schema):
        values = [row[j] for row in train.rows]
        if spec.kind is FeatureKind.NUMERICAL:
            arr = np.asarray(values, dtype=np.float64)
            lo, hi = float(arr.min()), float(arr.max())
            # Rounding can put the mean of near-equal values just outside
            # [lo, hi] and give a constant column a tiny nonzero std.
            stats.append(
                FeatureStats(
                    name=spec.name,
                    kind=spec.kind,
                    min=lo,
                    max=hi,
                    range=hi - lo,
                    mean=min(max(float(arr.mean()), lo), hi),
                    std=float(arr.std()) if hi > lo else 0.0,
                )
            )
        else:
            counts: dict[str, int] = {}
            for v in values:
                counts[v] = counts.get(v, 0) + 1
            categories = tuple(sorted(counts))
            mode = min(counts, key=lambda c: (-counts[c], c))
            stats.append(
                FeatureStats(name=spec.name, kind=spec.kind, categories=categories, mode=mode)
            )
    return stats


def stats_to_dicts(stats: Sequence[FeatureStats]) -> list[dict]:
    """JSON-ready form of fitted statistics (inverse of :func:`stats_from_dicts`)."""
    out = []
    for s in stats:
        if s.kind is FeatureKind.NUMERICAL:
            out.append(
                {"name": s.name, "kind": s.kind.value, "min": s.min, "max": s.max,
                 "mean": s.mean, "std": s.std}
            )
        else:
            out.append(
                {"name": s.name, "kind": s.kind.value,
                 "categories": list(s.categories), "mode": s.mode}
            )
    return out


def stats_from_dicts(docs: Sequence[dict]) -> list[FeatureStats]:
    """Rebuild statistics from their JSON form; invariants are re-validated."""
    stats = []
    for doc in docs:
        try:
            kind = FeatureKind(doc["kind"])
            if kind is FeatureKind.NUMERICAL:
                lo, hi = float(doc["min"]), float(doc["max"])
                stats.append(
                    FeatureStats(
                        name=doc["name"], kind=kind, min=lo, max=hi, range=hi - lo,
                        mean=float(doc["mean"]), std=float(doc["std"]),
                    )
                )
            else:
                stats.append(
                    FeatureStats(
                        name=doc["name"], kind=kind,
                        categories=tuple(doc["categories"]), mode=doc["mode"],
                    )
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise StatsError(f"malformed statistics entry {doc!r}: {exc}") from exc
    return stats


def split(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled train/test split.

    Train size is ceil(n * (1 - test_fraction)); the remainder is the test
    split. Statistics are not carried over: refit on the returned train split.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = len(dataset)
    order = list(range(n))
    SplitMix64(seed).shuffle(order)
    n_train = math.ceil(n * (1.0 - test_fraction))
    train_idx, test_idx = order[:n_train], order[n_train:]

    def take(idx: list[int]) -> Dataset:
        rows = [dataset.rows[i] for i in idx]
        labels = [dataset.labels[i] for i in idx] if dataset.labels is not None else None
        return Dataset(dataset.schema, rows, labels)

    return take(train_idx), take(test_idx)


def encoded_width(stats: Sequence[FeatureStats]) -> int:
    """Length of the encoded vector: 1 per numerical feature, |categories| per categorical."""
    return sum(1 if s.kind is FeatureKind.NUMERICAL else len(s.categories) for s in stats)


def encode(stats: Sequence[FeatureStats], x: Instance) -> np.ndarray:
    """Numeric encoding of one instance against fitted statistics.

    Min-max scaling for numerical features (a zero training range emits 0,
    out-of-range values are not clipped), one-hot in stored category order
    for categorical features. Unseen categories raise :class:`EncodeError`.
    """
    if len(x) != len(stats):
        raise EncodeError(f"instance has {len(x)} values, stats have {len(stats)}")
    out = np.zeros(encoded_width(stats), dtype=np.float64)
    pos = 0
    for stat, value in zip(stats, x):
        if stat.kind is FeatureKind.NUMERICAL:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise EncodeError(f"expected a number for '{stat.name}'")
            if stat.range > 0.0:
                out[pos] = (value - stat.min) / stat.range
            pos += 1
        else:
            if not isinstance(value, str):
                raise EncodeError(f"expected a category label for '{stat.name}'")
            try:
                offset = stat.categories.index(value)
            except ValueError:
                raise EncodeError(
                    f"unseen category '{value}' for '{stat.name}'"
                ) from None
            out[pos + offset] = 1.0
            pos += len(stat.categories)
    return out


def encode_batch(stats: Sequence[FeatureStats], xs: Sequence[Instance]) -> np.ndarray:
    """Encode many instances into a (n, encoded_width) matrix.

    Column-at-a-time vectorization; each row is bit-identical to
    :func:`encode` of that instance.
    """
    n = len(xs)
    out = np.zeros((n, encoded_width(stats)), dtype=np.float64)
    pos = 0
    for j, stat in enumerate(stats):
        if stat.kind is FeatureKind.NUMERICAL:
            col = np.asarray([x[j] for x in xs], dtype=np.float64)
            if stat.range > 0.0:
                out[:, pos] = (col - stat.min) / stat.range
            pos += 1
        else:
            index = {c: i for i, c in enumerate(stat.categories)}
            for i, x in enumerate(xs):
                try:
                    out[i, pos + index[x[j]]] = 1.0
                except KeyError:
                    raise EncodeError(
                        f"unseen category '{x[j]}' for '{stat.name}'"
                    ) from None
            pos += len(stat.categories)
    return out
