"""Schema-driven tabular datasets: ingestion, statistics, splitting, encoding.

A dataset is an ordered list of mixed-type rows aligned to a schema of
categorical and numerical features. Statistics (min/max/range/mean/std for
numerical features, category set and mode for categorical ones) are always
fitted on the training split only and drive both the distance metric and the
numeric encoding used by the built-in classifiers and the autoencoder.

Encoding is min-max scaling to [0, 1] for numerical features (training range;
values outside the training range are NOT clipped) and one-hot over the
training category set for categorical features, where a label outside that
set (still one the schema allows) encodes as all zeros.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DistanceError, EncodeError, IngestError, StatsError
from .rng import SplitMix64

# One feature value: a category label or a real number.
Value = str | float
# One row, aligned positionally to the schema.
Instance = tuple[Value, ...]
# Every check of a number names an int too large for a float with this
# phrase, and leaves its hundreds of digits out of the message.
_OUT_OF_RANGE = "integer out of float range"


class FeatureKind(Enum):
    CATEGORICAL = "categorical"
    NUMERICAL = "numerical"


@dataclass(frozen=True)
class FeatureSpec:
    """Declared identity of one column: name, kind, optional declared category set.

    ``categories`` is only set when the schema file pre-declares the allowed
    labels; it is the only category set that rejects a label. The labels
    :func:`fit_stats` finds in the training split lay out the encoding alone.
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
            if not math.isfinite(self.range):
                raise StatsError(f"non-finite range {self.range} for '{self.name}'")
        else:
            if not self.categories or self.mode not in self.categories:
                raise StatsError(f"inconsistent categorical stats for '{self.name}'")


class Dataset:
    """Immutable collection of validated rows plus optional binary labels.

    ``rule`` is the schema's :class:`_RowRule`, compiled once. A row that
    breaks it or a label other than 0 or 1 raises :class:`IngestError` with
    its row index. Rows are stored as tuples in ingestion order. Numpy views
    of the columns and labels are built lazily for vectorized scans and
    shared by all readers; the object is safe to share across threads once
    constructed.
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
        self.rule = _RowRule(self.schema)
        for i, row in enumerate(self.rows):
            if problem := self.rule.problem(row):
                raise IngestError(problem[0], row=i, column=problem[1])
        for i, label in enumerate(self.labels or ()):
            if isinstance(label, bool) or label not in (0, 1):
                raise IngestError(f"label must be 0 or 1, got {label!r}", row=i)
        self._columns: list | None = None
        self._label_array: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def n_features(self) -> int:
        return len(self.schema)

    def columns(self) -> list:
        """Per-feature columnar views, built on first use and then shared.

        Numerical feature -> float64 array. Categorical feature -> pair of
        (int32 code array, {label: code} mapping in order of first appearance).
        Only this and :meth:`label_array` gather values or labels across rows.
        """
        if self._columns is None:
            cols = []
            for j, spec in enumerate(self.schema):
                values = [row[j] for row in self.rows]
                if spec.kind is FeatureKind.NUMERICAL:
                    cols.append(np.asarray(values, dtype=np.float64))
                else:
                    mapping: dict[str, int] = {}
                    codes = (mapping.setdefault(v, len(mapping)) for v in values)
                    cols.append((np.fromiter(codes, np.int32, len(values)), mapping))
            self._columns = cols
        return self._columns

    def label_array(self) -> np.ndarray | None:
        """The labels as an int64 array, built on first use; None when unlabeled."""
        if self._label_array is None and self.labels is not None:
            self._label_array = np.asarray(self.labels, dtype=np.int64)
        return self._label_array


class _RowRule:
    """The value rule for rows over a schema's :class:`FeatureSpec` list, compiled once.

    A row holds one value per feature. A numerical value is a finite float
    or an int that fits one, not a bool; a categorical value is a str, one
    of the feature's declared categories when it has a set. Threads may
    share it.
    """

    def __init__(self, specs: Sequence[FeatureSpec]):
        self._fields = tuple(
            (s.name, s.kind is FeatureKind.NUMERICAL,
             None if s.categories is None else frozenset(s.categories)) for s in specs)

    def problem(self, row: Instance) -> tuple[str, str | None] | None:
        """The first way ``row`` breaks the rule as (message, feature name), or None."""
        if len(row) != len(self._fields):
            return f"row has {len(row)} values, schema has {len(self._fields)}", None
        for (name, numerical, categories), value in zip(self._fields, row):
            if numerical:
                # The exact type test first: it is the common case, and cheaper.
                if type(value) not in (float, int) and (
                        isinstance(value, bool) or not isinstance(value, (int, float))):
                    return f"expected a number for '{name}'", name
                try:
                    finite = math.isfinite(value)
                except OverflowError:
                    return f"{_OUT_OF_RANGE} for '{name}'", name
                if not finite:
                    return f"non-finite value {value} for '{name}'", name
            elif not isinstance(value, str):
                return f"expected a category label for '{name}'", name
            elif categories is not None and value not in categories:
                return f"unknown category '{value}' for '{name}'", name
        return None

    def check(self, row: Instance) -> None:
        """Raise :class:`EncodeError` with the message of :meth:`problem`, if any."""
        if problem := self.problem(row):
            raise EncodeError(problem[0])


def load_schema(schema_file: str | Path) -> tuple[list[FeatureSpec], str | None]:
    """Parse a schema JSON file into feature specs plus the label column name.

    Format: ``{"features": [{"name": ..., "kind": "categorical"|"numerical",
    "categories": [...]?}, ...], "label": str|null}``, with at least one feature.
    Feature names and the label name must all differ.
    """
    try:
        doc = json.loads(Path(schema_file).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # also: over 4300 digits, too deep nesting
        raise IngestError(f"schema file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("features"), list) or not doc["features"]:
        raise IngestError("schema file must be an object with a non-empty 'features' list")
    specs = []
    for entry in doc["features"]:
        if not isinstance(entry, dict):
            raise IngestError(f"bad feature entry in schema: {entry!r}")
        name = entry.get("name")
        kind = entry.get("kind")
        declared = entry.get("categories")
        if not isinstance(name, str) or not name or kind not in ("categorical", "numerical") or not (
            declared is None
            or isinstance(declared, list) and all(isinstance(c, str) for c in declared)
        ):
            raise IngestError(f"bad feature entry in schema: {entry!r}")
        categories = tuple(declared) if declared is not None else None
        specs.append(FeatureSpec(name, FeatureKind(kind), categories))
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise IngestError("schema 'label' must be a string or null")
    names = [s.name for s in specs] + ([label] if label is not None else [])
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise IngestError(f"schema repeats the names {repeated}")
    return specs, label


def load_dataset(schema_file: str | Path, csv_file: str | Path) -> Dataset:
    """Read a header-first CSV validated against a schema file.

    The CSV header must list the schema's feature names in order, followed by
    the label column when the schema declares one, and at least one data row.
    Only cells are parsed here: an empty cell, a numerical cell that is not a
    number and a label that is not an integer are rejected. :class:`Dataset`
    then checks each value against the schema and each label against 0/1,
    reporting the same row index. Row order is preserved.
    """
    specs, label_name = load_schema(schema_file)
    expected_header = [s.name for s in specs] + ([label_name] if label_name else [])
    try:
        with open(csv_file, newline="", encoding="utf-8") as fh:
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
                    try:
                        values.append(float(cell) if spec.kind is FeatureKind.NUMERICAL else cell)
                    except ValueError:
                        raise IngestError(
                            f"'{cell}' is not a number", row=i, column=spec.name
                        ) from None
                if labels is not None:
                    cell = cells[-1].strip()
                    if cell == "":
                        raise IngestError("missing value", row=i, column=label_name)
                    try:
                        labels.append(int(cell))
                    except ValueError:
                        raise IngestError(
                            f"label must be 0 or 1, got '{cell}'", row=i, column=label_name
                        ) from None
                rows.append(tuple(values))
    except UnicodeDecodeError as exc:
        raise IngestError(f"CSV file is not UTF-8: {exc}") from exc
    if not rows:
        raise IngestError("CSV file has a header but no data rows")
    return Dataset(specs, rows, labels)


def fit_stats(train: Dataset) -> tuple[FeatureStats, ...]:
    """Per-feature training statistics, as an encoding plan carrying ``train.rule``.

    Read from ``train.columns()``; category sets lay out the encoding only.
    Mode ties break toward the smallest label; std is the population one.
    numpy takes the mean and std of the column divided by a power of two near
    its largest magnitude, and they are scaled back: the division is exact, so
    ordinary columns keep numpy's bits, while huge values do not overflow the
    sums and tiny ones do not underflow the squares. A range too large raises
    :class:`StatsError`.
    """
    if len(train) == 0:
        raise StatsError("cannot fit statistics on an empty dataset")
    stats: list[FeatureStats] = []
    for spec, column in zip(train.schema, train.columns()):
        if spec.kind is FeatureKind.NUMERICAL:
            lo, hi = float(column.min()), float(column.max())
            # One below the magnitude's exponent, so that 2**1024 is never asked for.
            magnitude = max(-lo, hi)
            scale = math.ldexp(1.0, math.frexp(magnitude)[1] - 1) if magnitude else 1.0
            scaled = column / scale
            mean, std = float(scaled.mean()) * scale, float(scaled.std()) * scale
            # Rounding can put the mean of near-equal values just outside
            # [lo, hi] and give a constant column a tiny nonzero std.
            stats.append(
                FeatureStats(
                    name=spec.name,
                    kind=spec.kind,
                    min=lo,
                    max=hi,
                    range=hi - lo,
                    mean=min(max(mean, lo), hi),
                    std=std if hi > lo else 0.0,
                )
            )
        else:
            codes, mapping = column
            counts = np.bincount(codes, minlength=len(mapping))
            mode = min(mapping, key=lambda c: (-counts[mapping[c]], c))
            stats.append(
                FeatureStats(name=spec.name, kind=spec.kind, categories=tuple(sorted(mapping)),
                             mode=mode)
            )
    return _EncodingPlan(stats, train.rule)


def split(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled train/test split.

    Train size is ceil(n * (1 - test_fraction)); the remainder is the test
    split. A fraction that leaves either split empty raises
    :class:`ConfigError`. Statistics are not carried over: refit on the
    returned train split.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = len(dataset)
    n_train = math.ceil(n * (1.0 - test_fraction))
    if not 0 < n_train < n:
        raise ConfigError(
            f"test_fraction {test_fraction} splits {n} rows into "
            f"{n_train} train and {n - n_train} test rows; both must be non-empty"
        )
    order = list(range(n))
    SplitMix64(seed).shuffle(order)
    train_idx, test_idx = order[:n_train], order[n_train:]

    def take(idx: list[int]) -> Dataset:
        rows = [dataset.rows[i] for i in idx]
        labels = [dataset.labels[i] for i in idx] if dataset.labels is not None else None
        return Dataset(dataset.schema, rows, labels)

    return take(train_idx), take(test_idx)


class _EncodingPlan(tuple):
    """Fitted statistics with their row rule and encoding layout, worked out once.

    A tuple of the same :class:`FeatureStats`, so it stands wherever the
    statistics do. It also holds ``rule``, the :class:`_RowRule` given (from
    :func:`fit_stats`, the training schema's) or else one of names and kinds
    only; the encoded ``width``, per feature its ``slots`` (a slice) and its
    ``fields`` (first slot, category->slot dict or None, min, range), and
    ``owner``, the feature index of each slot. Every encoding and distance
    function reads the rule and the layout from a plan when given one and
    builds one otherwise. :meth:`_check_dataset` is the one test of whether
    statistics describe a dataset. A plan never changes after it is built,
    so threads may share it.
    """

    def __new__(cls, stats: Sequence[FeatureStats], rule: _RowRule | None = None):
        plan = super().__new__(cls, stats)
        fields, slots, pos = [], [], 0
        for stat in plan:
            if stat.kind is FeatureKind.NUMERICAL:
                fields.append((pos, None, float(stat.min), float(stat.range)))
                width = 1
            else:
                index = {c: pos + i for i, c in enumerate(stat.categories)}
                fields.append((pos, index, 0.0, 0.0))
                width = len(stat.categories)
            slots.append(slice(pos, pos + width))
            pos += width
        plan.rule = rule or _RowRule([FeatureSpec(s.name, s.kind) for s in plan])
        plan.width = pos
        plan.fields = tuple(fields)
        plan.slots = tuple(slots)
        plan.owner = np.repeat(np.arange(len(plan)), [s.stop - s.start for s in slots])
        plan.owner.flags.writeable = False
        return plan

    def _check_dataset(self, dataset: Dataset) -> None:
        """Raise :class:`DistanceError` unless the plan has ``dataset``'s names and kinds in order.

        A plan carrying ``dataset.rule``, as ``fit_stats(dataset)`` does, passes at once.
        """
        if self.rule is not dataset.rule and (
                [(s.name, s.kind) for s in self] != [(s.name, s.kind) for s in dataset.schema]):
            raise DistanceError("statistics do not match the dataset schema")


def _plan(stats: Sequence[FeatureStats]) -> _EncodingPlan:
    return stats if isinstance(stats, _EncodingPlan) else _EncodingPlan(stats)


def encode(stats: Sequence[FeatureStats], x: Instance) -> np.ndarray:
    """Numeric encoding of one instance against fitted statistics.

    Min-max scaling for numerical features (a zero training range emits 0,
    out-of-range values are not clipped, a quotient too large is ``inf``),
    one-hot in stored category order for categorical features; a category
    the training split never held leaves all of its feature's slots at 0.
    An instance that breaks the plan's row rule raises :class:`EncodeError`.
    Each feature's slots depend on that feature's value alone.
    """
    plan = _plan(stats)
    plan.rule.check(x)
    return np.array(_encoded_values(plan, x), dtype=np.float64)


def encode_batch(stats: Sequence[FeatureStats], xs: Sequence[Instance]) -> np.ndarray:
    """Encode many instances into a (n, encoded width) matrix.

    Every instance is held to the plan's row rule before any is encoded.
    The rows come from the same code as :func:`encode`, so each is bit for
    bit :func:`encode` of its instance.
    """
    plan = _plan(stats)
    for x in xs:
        plan.rule.check(x)
    return _encode_rows(plan, xs)


def _encode_training_rows(stats: Sequence[FeatureStats], train: Dataset) -> np.ndarray:
    """``encode_batch(stats, train.rows)`` for statistics checked against ``train``.

    A plan carrying ``train.rule`` skips the row rule, which ``Dataset`` applied already.
    """
    plan = _plan(stats)
    plan._check_dataset(train)
    encoder = _encode_rows if plan.rule is train.rule else encode_batch
    return encoder(plan, train.rows)


def _encoded_values(plan: _EncodingPlan, x: Instance) -> list[float]:
    """The one row encoder: the encoding of a checked row, as a list of floats."""
    out = [0.0] * plan.width  # a list is filled faster than an array, and converts exactly
    for (pos, index, lo, span), value in zip(plan.fields, x):
        if index is not None:
            if value in index:
                out[index[value]] = 1.0
        elif span > 0.0:
            # Python floats, even for a numpy.float64 value: their division gives inf, not a warning.
            out[pos] = (float(value) - lo) / span
    return out


def _encode_rows(plan: _EncodingPlan, xs: Sequence[Instance]) -> np.ndarray:
    # Streamed into the matrix: a list of every row's list would double the peak memory.
    values = itertools.chain.from_iterable(_encoded_values(plan, x) for x in xs)
    return np.fromiter(values, np.float64, len(xs) * plan.width).reshape(len(xs), plan.width)


def swap_hybrids(current: Instance, target: Instance, features: Sequence[int]) -> list[Instance]:
    """``current`` with feature j taken from ``target``, one tuple per j in ``features``."""
    hybrids = []
    for j in features:
        hybrid = list(current)
        hybrid[j] = target[j]
        hybrids.append(tuple(hybrid))
    return hybrids


class HybridSwaps:
    """A greedy search's swap state that builds each hybrid and scores it whole.

    ``scores(features)`` passes :func:`swap_hybrids` of the state's current
    row to ``score_many`` (a list of instances to their scores); ``take(j)``
    copies feature j from ``target`` into that row, a list copy of
    ``current``. One state serves one search.
    """

    def __init__(self, current: Instance, target: Instance, score_many):
        self.current = list(current)
        self.target = target
        self._score_many = score_many

    def scores(self, features: Sequence[int]):
        return self._score_many(swap_hybrids(self.current, self.target, features))

    def take(self, j: int) -> None:
        self.current[j] = self.target[j]


class EncodedSwaps:
    """A greedy search's swap state over two encodings, made once for the whole search.

    ``base`` is ``encode(current)`` and ``donor`` is ``encode(target)``.
    ``scores(features)`` applies ``score_vector`` to one row per j: a copy
    of ``base`` with feature j's slots taken from ``donor``. Since
    :func:`encode` fills each feature's slots from that feature's value
    alone, that row is bit for bit the encoding of the hybrid, and ``take(j)``,
    which copies j's slots into ``base``, keeps ``base`` equal to the
    encoding of the search's current row. A score that overflows is ``inf``,
    without a warning. One state serves one search.
    """

    def __init__(self, stats: Sequence[FeatureStats], current: Instance, target: Instance,
                 score_vector):
        self._plan = _plan(stats)
        self.base = encode(self._plan, current)
        self.donor = encode(self._plan, target)
        self._score_vector = score_vector

    def scores(self, features: Sequence[int]) -> list:
        take = self._plan.owner[None, :] == np.asarray(features, dtype=np.intp)[:, None]
        # Overflow gives inf; the score functions handle the NaN of inf - inf.
        with np.errstate(over="ignore", invalid="ignore"):
            return [self._score_vector(v) for v in np.where(take, self.donor, self.base)]

    def take(self, j: int) -> None:
        slots = self._plan.slots[j]
        self.base[slots] = self.donor[slots]
