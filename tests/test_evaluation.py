import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from nicecf.distance import heom
from nicecf.errors import ConfigError, EvalError
from nicecf.evaluation import (
    REPORT_METRICS,
    MetricRecord,
    RankTable,
    compute_metrics,
    cross_model_robustness,
    friedman_test,
    nemenyi_cd,
    rank_table,
    render_report,
    summarize_records,
    write_records_csv,
    write_timings_csv,
)
from nicecf.explainers import Explanation, SearchContext
from nicecf.tabular import fit_stats


def make_expl(source, counterfactual, valid=True, explainer_id="nice-spars"):
    changed = frozenset(
        j for j in range(len(source)) if source[j] != counterfactual[j]
    )
    return Explanation(
        explainer_id=explainer_id,
        source=tuple(source),
        counterfactual=tuple(counterfactual),
        valid=valid,
        changed_features=changed,
        trace=(),
        elapsed_ms=1.0,
    )


def rec(iid, eid, valid=True, time_ms=1.0, **metrics):
    return MetricRecord(iid, eid, valid, time_ms, **metrics)


@st.composite
def sparsity_records(draw):
    """Records of k explainers over n instances; some invalid, many values tied."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(2, 6))
    records = []
    for iid in range(n):
        for e in range(k):
            if draw(st.booleans()) and draw(st.booleans()):
                records.append(rec(iid, f"e{e}", valid=False))
            else:
                records.append(rec(iid, f"e{e}", sparsity=draw(st.integers(1, 4))))
    return draw(st.permutations(records)), k


INF = float("inf")
# Repeats make ties; 0.1, 0.7 and 1/3 make a mean depend on summation order.
TIED_VALUES = st.sampled_from([0.0, 0.5, 0.5, 0.1, 0.7, 1 / 3, INF, -INF, float("nan")])


@st.composite
def mixed_records(draw):
    """Shuffled records over distinct instance ids: ties, invalid cells, ±inf, NaN."""
    iids = draw(st.lists(st.integers(0, 99), min_size=1, max_size=6, unique=True))
    k = draw(st.integers(1, 5))
    records = []
    for iid in iids:
        for e in range(k):
            if draw(st.integers(0, 3)) == 0:
                records.append(rec(iid, f"e{e}", valid=False))
            else:
                records.append(rec(
                    iid, f"e{e}", sparsity=draw(st.integers(0, 3)),
                    proximity=draw(TIED_VALUES), ae_error=draw(TIED_VALUES),
                    knn5=draw(TIED_VALUES), robust=draw(st.none() | st.booleans()),
                ))
    return draw(st.permutations(records))


def reference_table(records, metric):
    """Rank each instance's valid records with rankdata; invalid ones share the worst ranks."""
    eids = tuple(dict.fromkeys(r.explainer_id for r in records))
    iids = tuple(dict.fromkeys(r.instance_id for r in records))
    cells = {(r.instance_id, r.explainer_id): r for r in records}
    k = len(eids)
    ranks = np.empty((len(iids), k))
    for i, iid in enumerate(iids):
        row = [cells[iid, e] for e in eids]
        valid = [c for c, r in enumerate(row) if r.valid]
        ranks[i] = k - (k - len(valid) - 1) / 2.0
        if valid:
            values = [float(getattr(row[c], metric)) for c in valid]
            ranks[i, valid] = rankdata(values, method="average")
    return RankTable(metric, eids, iids, ranks)


def reference_summary(records, alpha=0.05):
    """The summary rebuilt from reference_table, with means taken in record order."""
    first = reference_table(records, "time_ms")
    n, k = first.ranks.shape
    per_explainer = {}
    for e in first.explainer_ids:
        mine = [r for r in records if r.explainer_id == e]
        valid = [r for r in mine if r.valid]
        entry = {"instances": len(mine), "coverage": len(valid) / len(mine)}
        for m in REPORT_METRICS:
            entry[f"mean_{m}"] = (
                float(np.mean([float(getattr(r, m)) for r in valid])) if valid else None
            )
        flags = [r.robust for r in valid if r.robust is not None]
        if flags:
            entry["robustness"] = float(np.mean(flags))
        per_explainer[e] = entry
    ranking = {}
    for m in REPORT_METRICS:
        table = reference_table(records, m)
        best = table.ranks.min(axis=1)
        entry = {
            "mean_ranks": dict(zip(table.explainer_ids, map(float, table.mean_ranks()))),
            "best_counts": {
                e: int(np.sum(table.ranks[:, c] == best))
                for c, e in enumerate(table.explainer_ids)
            },
        }
        if n >= 2 and k >= 2:
            entry["friedman_statistic"], entry["friedman_reject"] = friedman_test(table, alpha)
        ranking[m] = entry
    summary = {
        "instances": n, "explainers": list(first.explainer_ids), "alpha": alpha,
        "per_explainer": per_explainer, "ranking": ranking,
    }
    if 2 <= k <= 10:
        summary["nemenyi_cd"] = nemenyi_cd(k, n, alpha)
    return summary


class TestAgainstRankdataReference:
    # A valid +inf cell beside an invalid one: filling invalid cells with +inf
    # before one rankdata call would tie the two.
    INF_BESIDE_INVALID = [
        rec(7, "a", sparsity=1, proximity=INF, ae_error=INF, knn5=INF),
        rec(7, "b", valid=False),
        rec(3, "b", sparsity=0, proximity=0.5, ae_error=-INF, knn5=float("nan")),
        rec(3, "a", sparsity=1, proximity=0.5, ae_error=INF, knn5=0.0),
    ]

    # Explainer "a" meets instances in the order 3, 2, 1 but they were first
    # seen as 1, 2, 3: its mean proximity depends on which order is summed.
    ORDER_SENSITIVE_MEAN = [rec(i, "b", valid=False) for i in (1, 2, 3)] + [
        rec(3, "a", sparsity=1, proximity=0.5, ae_error=0.0, knn5=0.0),
        rec(2, "a", sparsity=1, proximity=0.7, ae_error=0.0, knn5=0.0),
        rec(1, "a", sparsity=1, proximity=0.1, ae_error=0.0, knn5=0.0),
    ]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(mixed_records())
    @example(INF_BESIDE_INVALID)
    @example(ORDER_SENSITIVE_MEAN)
    def test_ranks_and_summary_match_bitwise(self, records):
        for metric in REPORT_METRICS + ("time_ms",):
            table, expected = rank_table(records, metric), reference_table(records, metric)
            assert table.explainer_ids == expected.explainer_ids
            assert table.instance_ids == expected.instance_ids
            assert table.ranks.tobytes() == expected.ranks.tobytes()
        assert json.dumps(summarize_records(records)) == json.dumps(reference_summary(records))


class TestComputeMetrics:
    @pytest.fixture()
    def ctx(self, tiny_dataset, tiny_stats, scripted_model_cls):
        return SearchContext(
            tiny_dataset, tiny_stats, scripted_model_cls({}, default=0.5),
            scorer=lambda x: 0.125,
        )

    def test_single_categorical_change(self, ctx):
        expl = make_expl((10.0, "red"), (10.0, "blue"))
        m = compute_metrics(expl, ctx, instance_id=7)
        assert m.instance_id == 7
        assert m.explainer_id == "nice-spars"
        assert m.valid
        assert m.sparsity == 1
        assert m.proximity == pytest.approx(1.0)
        assert m.ae_error == pytest.approx(0.125)
        assert m.time_ms == 1.0

    def test_knn5_matches_direct_scan(self, ctx, tiny_dataset, tiny_stats):
        cf = (10.0, "blue")
        expl = make_expl((10.0, "red"), cf)
        m = compute_metrics(expl, ctx)
        d = sorted(heom(tiny_stats, cf, row) for row in tiny_dataset.rows)
        assert m.knn5 == pytest.approx(sum(d[:4]) / 4)
        assert m.knn5 == pytest.approx(1.25)

    def test_counterfactual_on_train_row_has_zero_neighbor(self, ctx, tiny_dataset, tiny_stats):
        cf = tiny_dataset.rows[1]
        expl = make_expl((10.0, "red"), cf)
        m = compute_metrics(expl, ctx)
        d = sorted(heom(tiny_stats, cf, row) for row in tiny_dataset.rows)
        assert d[0] == 0.0
        assert m.knn5 == pytest.approx(sum(d[:4]) / 4)

    def test_invalid_has_no_quality_fields(self, ctx):
        expl = make_expl((10.0, "red"), (10.0, "red"), valid=False, explainer_id="cbr")
        m = compute_metrics(expl, ctx, instance_id=3)
        assert m == MetricRecord(3, "cbr", False, 1.0)
        assert m.sparsity is None and m.proximity is None

    def test_requires_scorer(self, tiny_dataset, tiny_stats, scripted_model_cls):
        ctx = SearchContext(tiny_dataset, tiny_stats, scripted_model_cls({}, default=0.5))
        expl = make_expl((10.0, "red"), (10.0, "blue"))
        with pytest.raises(EvalError):
            compute_metrics(expl, ctx)


class TestCrossModelRobustness:
    def test_flipping_model_gives_one(self, scripted_model_cls):
        expls = [
            make_expl(("a",), ("b",)),
            make_expl(("c",), ("d",)),
        ]
        other = scripted_model_cls({("a",): 0.9, ("b",): 0.1, ("c",): 0.2, ("d",): 0.8})
        assert cross_model_robustness(expls, other) == 1.0

    def test_constant_model_gives_zero(self, scripted_model_cls):
        expls = [make_expl(("a",), ("b",))]
        assert cross_model_robustness(expls, scripted_model_cls({}, default=0.9)) == 0.0

    def test_fraction_counts_only_valid(self, scripted_model_cls):
        expls = [
            make_expl(("a",), ("b",)),                  # flips under other
            make_expl(("c",), ("d",)),                  # does not
            make_expl(("e",), ("e",), valid=False),     # excluded
        ]
        other = scripted_model_cls(
            {("a",): 0.9, ("b",): 0.1, ("c",): 0.8, ("d",): 0.7}, default=0.5
        )
        assert cross_model_robustness(expls, other) == 0.5

    def test_empty_and_all_invalid_rejected(self, scripted_model_cls):
        other = scripted_model_cls({}, default=0.5)
        with pytest.raises(EvalError):
            cross_model_robustness([], other)
        with pytest.raises(EvalError):
            cross_model_robustness([make_expl(("a",), ("a",), valid=False)], other)


class TestRankTable:
    def test_basic_ordering(self):
        records = [
            rec(0, "a", sparsity=1), rec(0, "b", sparsity=3), rec(0, "c", sparsity=2),
        ]
        table = rank_table(records, "sparsity")
        assert table.explainer_ids == ("a", "b", "c")
        assert table.instance_ids == (0,)
        assert table.ranks.tolist() == [[1.0, 3.0, 2.0]]

    def test_ties_get_average_rank(self):
        records = [
            rec(0, "a", proximity=0.5), rec(0, "b", proximity=0.5),
            rec(0, "c", proximity=1.0),
        ]
        table = rank_table(records, "proximity")
        assert table.ranks.tolist() == [[1.5, 1.5, 3.0]]

    def test_single_invalid_takes_worst_rank(self):
        records = [
            rec(0, "a", sparsity=2), rec(0, "b", valid=False), rec(0, "c", sparsity=1),
        ]
        table = rank_table(records, "sparsity")
        assert table.ranks.tolist() == [[2.0, 3.0, 1.0]]

    def test_multiple_invalid_share_averaged_worst_ranks(self):
        records = [
            rec(0, "a", sparsity=1), rec(0, "b", valid=False),
            rec(0, "c", valid=False), rec(0, "d", sparsity=2),
        ]
        table = rank_table(records, "sparsity")
        # the two invalids share ranks 3 and 4
        assert table.ranks.tolist() == [[1.0, 3.5, 3.5, 2.0]]

    def test_all_invalid_row(self):
        records = [rec(0, "a", valid=False), rec(0, "b", valid=False)]
        table = rank_table(records, "sparsity")
        assert table.ranks.tolist() == [[1.5, 1.5]]

    @settings(max_examples=200, deadline=None)
    @given(sparsity_records())
    def test_row_sums_are_conserved(self, records_and_k):
        records, k = records_and_k
        table = rank_table(records, "sparsity")
        assert table.ranks.sum(axis=1).tolist() == [k * (k + 1) / 2] * len(table.instance_ids)

    def test_order_follows_first_appearance(self):
        records = [
            rec(4, "z", sparsity=1), rec(4, "a", sparsity=2),
            rec(2, "z", sparsity=2), rec(2, "a", sparsity=1),
        ]
        table = rank_table(records, "sparsity")
        assert table.explainer_ids == ("z", "a")
        assert table.instance_ids == (4, 2)
        assert table.ranks.tolist() == [[1.0, 2.0], [2.0, 1.0]]

    def test_record_shuffle_equivariance(self):
        records = [
            rec(i, e, sparsity=(i * 3 + ord(e)) % 5 + 1)
            for i in range(6) for e in ("a", "b", "c")
        ]
        base = rank_table(records, "sparsity")
        shuffled = rank_table(records[::-1], "sparsity")
        by_id = dict(zip(base.explainer_ids, base.mean_ranks()))
        by_id2 = dict(zip(shuffled.explainer_ids, shuffled.mean_ranks()))
        assert by_id == pytest.approx(by_id2)

    def test_structural_errors(self):
        with pytest.raises(EvalError):
            rank_table([], "sparsity")
        with pytest.raises(ConfigError):
            rank_table([rec(0, "a", sparsity=1)], "not-a-metric")
        with pytest.raises(EvalError):
            rank_table([rec(0, "a", sparsity=1), rec(0, "a", sparsity=2)], "sparsity")
        with pytest.raises(EvalError):
            rank_table(
                [rec(0, "a", sparsity=1), rec(0, "b", sparsity=1), rec(1, "a", sparsity=1)],
                "sparsity",
            )
        with pytest.raises(EvalError):
            rank_table([rec(0, "a"), rec(0, "b", sparsity=1)], "sparsity")


class TestFriedman:
    def table_from_values(self, per_instance_values, ids=("a", "b", "c")):
        records = []
        for iid, values in enumerate(per_instance_values):
            for e, v in zip(ids, values):
                records.append(rec(iid, e, sparsity=v))
        return rank_table(records, "sparsity")

    def test_identical_columns_give_zero(self):
        table = self.table_from_values([(1, 1, 1)] * 4)
        statistic, reject = friedman_test(table, alpha=0.05)
        assert statistic == 0.0
        assert not reject

    def test_hand_computed_statistic(self):
        # rank rows (1,2,3) x3 and (1,3,2): mean ranks 1, 2.25, 2.75
        table = self.table_from_values([(1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 3, 2)])
        statistic, reject = friedman_test(table, alpha=0.05)
        assert statistic == pytest.approx(6.5)
        assert reject  # critical value at df=2 is 5.991
        statistic, reject = friedman_test(table, alpha=0.01)
        assert statistic == pytest.approx(6.5)
        assert not reject  # critical value at df=2 is 9.210

    @settings(max_examples=200, deadline=None)
    @given(sparsity_records(), st.sampled_from((0.01, 0.05, 0.1)))
    def test_statistic_non_negative(self, records_and_k, alpha):
        statistic, _ = friedman_test(rank_table(records_and_k[0], "sparsity"), alpha)
        assert math.isfinite(statistic) and statistic >= 0.0

    def test_alpha_validation(self):
        table = self.table_from_values([(1, 2, 3), (3, 2, 1)])
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ConfigError):
                friedman_test(table, alpha)

    def test_degenerate_tables_rejected(self):
        single_instance = self.table_from_values([(1, 2, 3)])
        with pytest.raises(EvalError):
            friedman_test(single_instance, 0.05)
        single_explainer = rank_table(
            [rec(0, "a", sparsity=1), rec(1, "a", sparsity=2)], "sparsity"
        )
        with pytest.raises(EvalError):
            friedman_test(single_explainer, 0.05)


class TestNemenyi:
    def test_reference_value(self):
        cd = nemenyi_cd(8, 7140, alpha=0.05)
        assert 0.11 <= cd <= 0.13
        assert cd == pytest.approx(3.031 * math.sqrt(8 * 9 / (6 * 7140.0)))

    def test_scaling_in_n(self):
        assert nemenyi_cd(5, 100) / nemenyi_cd(5, 200) == pytest.approx(math.sqrt(2))

    def test_alpha_010_row(self):
        assert nemenyi_cd(2, 10, alpha=0.10) == pytest.approx(1.645 * math.sqrt(6 / 60.0))

    def test_rejects_untabulated_inputs(self):
        with pytest.raises(ConfigError):
            nemenyi_cd(8, 7140, alpha=0.01)
        with pytest.raises(ConfigError):
            nemenyi_cd(1, 100)
        with pytest.raises(ConfigError):
            nemenyi_cd(11, 100)
        with pytest.raises(ConfigError):
            nemenyi_cd(5, 0)


SUMMARY_RECORDS = [
    rec(0, "a", sparsity=1, proximity=0.2, ae_error=0.01, knn5=0.1),
    rec(0, "b", sparsity=2, proximity=0.4, ae_error=0.02, knn5=0.2),
    rec(1, "a", sparsity=2, proximity=0.6, ae_error=0.03, knn5=0.3),
    rec(1, "b", sparsity=1, proximity=0.3, ae_error=0.01, knn5=0.1),
    rec(2, "a", valid=False),
    rec(2, "b", sparsity=1, proximity=0.1, ae_error=0.02, knn5=0.2),
]


class TestSummarize:
    def test_summary_contents(self):
        summary = summarize_records(SUMMARY_RECORDS, alpha=0.05)
        assert summary["instances"] == 3
        assert summary["explainers"] == ["a", "b"]
        per = summary["per_explainer"]
        assert per["a"]["coverage"] == pytest.approx(2 / 3)
        assert per["b"]["coverage"] == 1.0
        assert per["a"]["mean_sparsity"] == pytest.approx(1.5)
        assert per["b"]["mean_proximity"] == pytest.approx((0.4 + 0.3 + 0.1) / 3)
        ranking = summary["ranking"]
        # per-instance sparsity ranks: (1,2), (2,1), (2,1)
        assert ranking["sparsity"]["mean_ranks"]["a"] == pytest.approx(5 / 3)
        assert ranking["sparsity"]["mean_ranks"]["b"] == pytest.approx(4 / 3)
        assert ranking["sparsity"]["best_counts"] == {"a": 1, "b": 2}
        assert "friedman_statistic" in ranking["sparsity"]
        assert summary["nemenyi_cd"] == pytest.approx(1.960 * math.sqrt(6 / 18.0))

    def test_robustness_mean(self):
        records = [
            rec(0, "a", sparsity=1, robust=True),
            rec(1, "a", sparsity=1, robust=False),
            rec(2, "a", valid=False),
        ]
        summary = summarize_records(records)
        assert summary["per_explainer"]["a"]["robustness"] == 0.5
        assert "robustness" not in summarize_records(SUMMARY_RECORDS)["per_explainer"]["a"]

    def test_metric_missing_on_valid_record_drops_that_panel(self):
        records = [
            rec(0, "a", sparsity=1), rec(0, "b", sparsity=2),
            rec(1, "a", sparsity=2), rec(1, "b", sparsity=1),
        ]
        summary = summarize_records(records)
        assert "sparsity" in summary["ranking"]
        assert "proximity" not in summary["ranking"]
        assert summary["per_explainer"]["a"]["mean_proximity"] is None

    def test_structural_problems_propagate(self):
        records = [
            rec(0, "a", sparsity=1), rec(0, "b", sparsity=2), rec(1, "a", sparsity=1),
        ]
        with pytest.raises(EvalError):
            summarize_records(records)
        with pytest.raises(EvalError):
            summarize_records([])

    def test_report_rendering(self):
        summary = summarize_records(SUMMARY_RECORDS, alpha=0.05)
        text = render_report(summary)
        assert "Panel A: coverage" in text
        assert "Panel B: mean ranks" in text
        assert "Panel C: instances ranked best" in text
        for eid in ("a", "b"):
            assert f"\n{eid.ljust(12)}" in text
        assert "critical difference (mean ranks):" in text
        # same summary renders to the same text
        assert text == render_report(summarize_records(SUMMARY_RECORDS, alpha=0.05))


class TestCsvWriters:
    def test_records_csv_layout(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(
            [rec(0, "a", sparsity=1, proximity=0.25, ae_error=0.5, knn5=1.5),
             rec(1, "a", valid=False)],
            path,
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "instance_id,explainer_id,valid,sparsity,proximity,ae_error,knn5,robust"
        assert lines[1] == "0,a,true,1,0.25,0.5,1.5,"
        assert lines[2] == "1,a,false,,,,,"
        assert "time" not in lines[0]

    def test_timings_csv_layout(self, tmp_path):
        path = tmp_path / "timings.csv"
        write_timings_csv([rec(0, "a", time_ms=12.5)], path)
        lines = path.read_text().splitlines()
        assert lines == ["instance_id,explainer_id,time_ms", "0,a,12.5"]
