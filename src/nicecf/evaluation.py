"""Explanation quality metrics, rank aggregation, and benchmark statistics.

Per-explanation metrics (lower is better throughout): sparsity (changed
feature count), proximity (mixed-type distance from source to
counterfactual), reconstruction error of the counterfactual, and the mean
distance to its 5 nearest training rows. Explainers are compared by ranking
them per instance (average ranks on ties, invalid results share the worst
ranks), then aggregating mean ranks, a Friedman chi-square test across
instances, and the Nemenyi critical difference for pairwise mean-rank gaps.

Report artifacts are split by determinism: the record CSV, summary JSON and
text report contain no wall-clock data, so identical runs produce identical
bytes; timings are written separately.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import gammaincinv

# heom_to_rows is unused here but stays importable from this module:
# bench/tracing.py rebinds nicecf.evaluation.heom_to_rows by name.
from .distance import _weighted_scan, heom, heom_to_rows, k_smallest  # noqa: F401
from .errors import ConfigError, EvalError
from .explainers import Explanation, SearchContext
from .model import ClassifierHandle

RANKABLE_METRICS = ("sparsity", "proximity", "ae_error", "knn5", "time_ms")
# Metrics carried into deterministic reports (wall-clock excluded).
REPORT_METRICS = ("sparsity", "proximity", "ae_error", "knn5")


@dataclass(frozen=True)
class MetricRecord:
    """Metrics of one explanation attempt.

    The quality fields are None when the attempt was invalid; ``time_ms``
    is always present (the attempt still took time). No code in this
    package sets ``robust``, so its ``records.csv`` column stays empty; the
    ``robustness`` command writes ``robustness.json`` instead.
    """

    instance_id: int
    explainer_id: str
    valid: bool
    time_ms: float
    sparsity: int | None = None
    proximity: float | None = None
    ae_error: float | None = None
    knn5: float | None = None
    robust: bool | None = None


def compute_metrics(
    expl: Explanation, ctx: SearchContext, instance_id: int = 0
) -> MetricRecord:
    """Metrics for one explanation against its search context.

    Proximity and the 5-nearest-neighbor distance use the unweighted
    mixed-type metric over all training rows (no class filter; fewer than 5
    rows use all of them). The reconstruction error comes from the context's
    plausibility scorer, which must be present. The neighbour scan reads
    the thread's newest term store when it covers ``ctx.train`` (see
    :mod:`nicecf.distance`), so the terms of the source's and its anchor's
    values, which most counterfactuals hold, are not computed again.
    """
    if not expl.valid:
        return MetricRecord(instance_id, expl.explainer_id, False, expl.elapsed_ms)
    if ctx.scorer is None:
        raise EvalError("computing the ae_error metric requires a scorer on the context")
    xc = expl.counterfactual
    proximity = heom(ctx.stats, expl.source, xc)
    # heom above checked xc, so this is heom_to_rows' scan without its checks.
    ranges = [stat.range for stat in ctx.stats]
    d = _weighted_scan(ctx.stats, ranges, [xc], ctx.train, (1.0,) * len(xc))[0]
    nearest = d[k_smallest(d, min(5, len(d)))]
    return MetricRecord(
        instance_id=instance_id,
        explainer_id=expl.explainer_id,
        valid=True,
        time_ms=expl.elapsed_ms,
        sparsity=len(expl.changed_features),
        proximity=float(proximity),
        ae_error=float(ctx.scorer(xc)),
        knn5=float(nearest.mean()),
    )


def cross_model_robustness(
    expls: Sequence[Explanation], other: ClassifierHandle
) -> float:
    """Fraction of valid explanations that still flip the class under another model.

    A counterfactual counts as robust when ``other`` predicts it differently
    than ``other`` predicts the explanation's source.
    """
    if len(expls) == 0:
        raise EvalError("robustness of an empty explanation list is undefined")
    valid = [e for e in expls if e.valid]
    if not valid:
        raise EvalError("no valid explanations to evaluate robustness on")
    src_preds = other.predict_batch([e.source for e in valid])
    cf_preds = other.predict_batch([e.counterfactual for e in valid])
    return float(np.mean(src_preds != cf_preds))


@dataclass(frozen=True)
class RankTable:
    """Per-instance ranks of explainers on one metric; shape (instances, explainers)."""

    metric: str
    explainer_ids: tuple[str, ...]
    instance_ids: tuple[int, ...]
    ranks: np.ndarray

    def mean_ranks(self) -> np.ndarray:
        return self.ranks.mean(axis=0)


class _Grid:
    """Records laid out as ``cells[instance][explainer]``.

    Explainer and instance ids keep their first appearance in the records;
    ``columns`` holds each explainer's records in record order.
    """

    def __init__(self, records: Sequence[MetricRecord]):
        rows: dict[int, dict[str, MetricRecord]] = {}
        self.columns: dict[str, list[MetricRecord]] = {}
        for rec in records:
            self.columns.setdefault(rec.explainer_id, []).append(rec)
            row = rows.setdefault(rec.instance_id, {})
            if rec.explainer_id in row:
                raise EvalError(
                    f"duplicate record for instance {rec.instance_id}, "
                    f"explainer '{rec.explainer_id}'"
                )
            row[rec.explainer_id] = rec
        self.explainer_ids = tuple(self.columns)
        self.instance_ids = tuple(rows)
        for iid, row in rows.items():
            if len(row) != len(self.explainer_ids):
                raise EvalError(f"instance {iid} does not cover the full explainer set")
        self.cells = [[row[e] for e in self.explainer_ids] for row in rows.values()]
        self.valid = np.array([[r.valid for r in row] for row in self.cells], dtype=bool)

    def rank(self, metric: str) -> RankTable:
        """Ranks of every cell on ``metric``; see :func:`rank_table`."""
        raw = np.array([[getattr(r, metric) for r in row] for row in self.cells], dtype=object)
        missing = np.argwhere(self.valid & np.equal(raw, None))
        if len(missing):
            r, c = missing[0]
            raise EvalError(
                f"record for instance {self.instance_ids[r]}, explainer "
                f"'{self.explainer_ids[c]}' lacks metric '{metric}'"
            )
        values = np.where(self.valid, raw, 0.0).astype(np.float64)
        k = len(self.explainer_ids)
        # Average ranks among a row's valid cells: #less + (#equal + 1) / 2.
        # A valid NaN makes every valid rank of its row NaN, as rankdata does.
        pairs = self.valid[:, None, :]
        less = (pairs & (values[:, None, :] < values[:, :, None])).sum(axis=2)
        equal = (pairs & (values[:, None, :] == values[:, :, None])).sum(axis=2)
        ranks = less + (equal + 1) / 2.0
        ranks[np.isnan(values).any(axis=1)] = np.nan
        # Invalid cells share the averaged worst ranks of their row. They are
        # masked rather than filled with +inf, because a valid value can be +inf.
        worst = k - (k - self.valid.sum(axis=1, keepdims=True) - 1) / 2.0
        ranks = np.where(self.valid, ranks, worst)
        return RankTable(metric, self.explainer_ids, self.instance_ids, ranks)


def rank_table(records: Sequence[MetricRecord], metric: str) -> RankTable:
    """Rank explainers per instance on one metric, lower value = rank 1.

    Invalid attempts share the averaged worst ranks of the row; tied values
    among valid attempts receive their average rank. Every instance must
    carry exactly one record per explainer, with the same explainer set
    throughout. Column order follows first appearance in ``records``.
    """
    if metric not in RANKABLE_METRICS:
        raise ConfigError(f"unknown metric '{metric}'")
    if not records:
        raise EvalError("cannot rank an empty record list")
    return _Grid(records).rank(metric)


def friedman_test(table: RankTable, alpha: float) -> tuple[float, bool]:
    """Friedman chi-square over the rank table's column means.

    Returns the statistic and whether it exceeds the chi-square critical
    value at k-1 degrees of freedom for the given alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    n, k = table.ranks.shape
    if n < 2 or k < 2:
        raise EvalError(f"rank table is degenerate: {n} instances, {k} explainers")
    mean_ranks = table.mean_ranks()
    statistic = (12.0 * n / (k * (k + 1))) * (
        float(np.sum(mean_ranks**2)) - k * (k + 1) ** 2 / 4.0
    )
    statistic = max(statistic, 0.0)
    # What chi2.ppf(1 - alpha, k - 1) computes, bit for bit, without importing scipy.stats.
    critical = 2.0 * float(gammaincinv((k - 1) / 2.0, 1.0 - alpha))
    return statistic, statistic > critical


# Studentized-range quantiles divided by sqrt(2), k = 2..10, for the Nemenyi
# critical difference.
_NEMENYI_Q = {
    0.05: {2: 1.960, 3: 2.343, 4: 2.569, 5: 2.728, 6: 2.850, 7: 2.949,
           8: 3.031, 9: 3.102, 10: 3.164},
    0.10: {2: 1.645, 3: 2.052, 4: 2.291, 5: 2.459, 6: 2.589, 7: 2.693,
           8: 2.780, 9: 2.855, 10: 2.920},
}


def nemenyi_cd(k: int, n: int, alpha: float = 0.05) -> float:
    """Critical difference for mean ranks: q_alpha(k) * sqrt(k(k+1)/(6N)).

    Two explainers perform detectably differently when their mean ranks over
    N instances differ by more than this value. Only alpha 0.05 and 0.10 and
    2 <= k <= 10 are tabulated.
    """
    table = _NEMENYI_Q.get(alpha)
    if table is None:
        raise ConfigError(f"alpha {alpha} is not tabulated (use 0.05 or 0.10)")
    if k not in table:
        raise ConfigError(f"k={k} is not tabulated (2 <= k <= 10)")
    if n < 1:
        raise ConfigError(f"N must be >= 1, got {n}")
    return table[k] * math.sqrt(k * (k + 1) / (6.0 * n))


# --- benchmark report assembly --------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_records_csv(records: Sequence[MetricRecord], path: str | Path) -> None:
    """Per-record CSV without wall-clock columns; identical runs give identical bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance_id", "explainer_id", "valid", *REPORT_METRICS, "robust"])
        for r in records:
            writer.writerow(
                [r.instance_id, r.explainer_id, _fmt(r.valid),
                 *(_fmt(getattr(r, m)) for m in REPORT_METRICS), _fmt(r.robust)]
            )


def write_timings_csv(records: Sequence[MetricRecord], path: str | Path) -> None:
    """Wall-clock sidecar (instance, explainer, milliseconds); varies run to run."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance_id", "explainer_id", "time_ms"])
        for r in records:
            writer.writerow([r.instance_id, r.explainer_id, repr(r.time_ms)])


# Significance level of every summary's Friedman tests and Nemenyi critical difference.
_ALPHA = 0.05


def summarize_records(records: Sequence[MetricRecord]) -> dict:
    """Aggregate records into a JSON-ready summary.

    Per explainer: coverage and mean quality metrics over its valid attempts.
    Per metric: mean ranks, the Friedman statistic with its rejection flag,
    the count of instances each explainer ranks best on, and the Nemenyi
    critical difference, at alpha 0.05. Timing is deliberately absent.
    """
    if not records:
        raise EvalError("cannot summarize an empty record list")
    grid = _Grid(records)
    per_explainer = {}
    for eid, mine in grid.columns.items():
        valid = [r for r in mine if r.valid]
        entry = {
            "instances": len(mine),
            "coverage": len(valid) / len(mine),
        }
        for metric in REPORT_METRICS:
            values = [getattr(r, metric) for r in valid]
            entry[f"mean_{metric}"] = (
                float(np.mean([float(v) for v in values])) if values and None not in values
                else None
            )
        robust_flags = [r.robust for r in valid if r.robust is not None]
        if robust_flags:
            entry["robustness"] = float(np.mean(robust_flags))
        per_explainer[eid] = entry
    n_instances = len(grid.instance_ids)
    k = len(grid.explainer_ids)
    ranking = {}
    for metric in REPORT_METRICS:
        try:
            table = grid.rank(metric)
        except EvalError:
            # A valid record without this metric value (e.g. no scorer was
            # configured): drop the metric from the ranking panels.
            continue
        mean_ranks = table.mean_ranks()
        best = table.ranks.min(axis=1)
        entry = {
            "mean_ranks": {e: float(mr) for e, mr in zip(table.explainer_ids, mean_ranks)},
            "best_counts": {
                e: int(np.sum(table.ranks[:, c] == best))
                for c, e in enumerate(table.explainer_ids)
            },
        }
        if n_instances >= 2 and k >= 2:
            entry["friedman_statistic"], entry["friedman_reject"] = friedman_test(table, _ALPHA)
        ranking[metric] = entry
    summary = {
        "instances": n_instances,
        "explainers": list(grid.explainer_ids),
        "alpha": _ALPHA,
        "per_explainer": per_explainer,
        "ranking": ranking,
    }
    if 2 <= k <= 10:
        summary["nemenyi_cd"] = nemenyi_cd(k, n_instances, _ALPHA)
    return summary


def render_report(summary: dict) -> str:
    """Plain-text report: coverage panel, mean-rank panel, best-count panel."""
    explainers = summary["explainers"]
    lines = []
    width = max([len(e) for e in explainers] + [12])

    def row(label: str, cells: list[str]) -> str:
        return label.ljust(width) + "".join(c.rjust(12) for c in cells)

    lines.append(f"Benchmark of {summary['instances']} instances, "
                 f"{len(explainers)} explainers (alpha={summary['alpha']})")
    lines.append("")
    lines.append("Panel A: coverage")
    lines.append(row("explainer", ["coverage"]))
    for e in explainers:
        cov = summary["per_explainer"][e]["coverage"]
        lines.append(row(e, [f"{100.0 * cov:.1f}"]))
    lines.append("")
    lines.append("Panel B: mean ranks (lower is better)")
    metrics = list(summary["ranking"])
    lines.append(row("explainer", metrics))
    for e in explainers:
        cells = []
        for m in metrics:
            mr = summary["ranking"][m]["mean_ranks"].get(e)
            cells.append(f"{mr:.3f}" if mr is not None else "-")
        lines.append(row(e, cells))
    stat_cells = []
    for m in metrics:
        st = summary["ranking"][m].get("friedman_statistic")
        mark = "*" if summary["ranking"][m].get("friedman_reject") else ""
        stat_cells.append(f"{st:.2f}{mark}" if st is not None else "-")
    lines.append(row("friedman", stat_cells))
    if "nemenyi_cd" in summary:
        lines.append(f"critical difference (mean ranks): {summary['nemenyi_cd']:.4f}")
    lines.append("")
    lines.append("Panel C: instances ranked best (ties shared)")
    lines.append(row("explainer", metrics))
    for e in explainers:
        cells = []
        for m in metrics:
            bc = summary["ranking"][m]["best_counts"].get(e)
            cells.append(str(bc) if bc is not None else "-")
        lines.append(row(e, cells))
    lines.append("")
    return "\n".join(lines)
