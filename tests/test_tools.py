"""The pure parts of the repository's tools, on canned input."""

import importlib.util
import json
from pathlib import Path

import pytest

TOP = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOP / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_tool("bench_pairs")

END_TO_END = [
    {"name": "query_ms_p50", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "explanations_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def line(query, rate, correct=True, rss=90.0):
    """The last output line of a ``bench/run.py`` run with these metric values."""
    metrics = {"query_ms_p50": {"value": query, "unit": "ms"},
               "explanations_per_s": {"value": rate, "unit": "1/s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return json.dumps({"correct": correct, "attempted": 100, "failed": 0, "metrics": metrics})


class TestBenchPairsSummary:
    def test_quartiles_and_pairs_won_follow_better(self):
        ref = [line(7.0, 500.0), line(7.2, 480.0), line(7.1, 490.0)]
        new = [line(5.2, 520.0), line(7.3, 470.0), line(5.3, 490.0)]
        rows = {r["name"]: r for r in bench_pairs.summarize(END_TO_END, ref, new)}
        assert list(rows) == ["query_ms_p50", "explanations_per_s", "peak_rss_mb"]
        query = rows["query_ms_p50"]
        assert query["ref"] == pytest.approx((7.05, 7.1, 7.15))
        assert query["new"] == pytest.approx((5.25, 5.3, 6.3))
        assert (query["won"], query["pairs"], query["unit"]) == (2, 3, "ms")
        # Higher is better here, and the tie in the third pair is won by neither side.
        assert (rows["explanations_per_s"]["won"], rows["explanations_per_s"]["pairs"]) == (1, 3)
        assert rows["peak_rss_mb"]["won"] == 0

    def test_one_pair_has_its_values_as_quartiles(self):
        (row,) = bench_pairs.summarize(END_TO_END[:1], [line(6.0, 1.0)], [line(5.0, 1.0)])
        assert (row["ref"], row["new"], row["won"]) == ((6.0, 6.0, 6.0), (5.0, 5.0, 5.0), 1)

    @pytest.mark.parametrize("side", ["ref", "new"])
    def test_a_run_that_is_not_correct_is_refused(self, side):
        good, bad = [line(7.0, 500.0)], [line(7.0, 500.0, correct=False)]
        ref, new = (bad, good) if side == "ref" else (good, bad)
        with pytest.raises(ValueError, match="run is not correct"):
            bench_pairs.summarize(END_TO_END, ref, new)

    def test_sides_of_different_lengths_are_refused(self):
        with pytest.raises(ValueError, match="2 runs at the ref against 1"):
            bench_pairs.summarize(END_TO_END, [line(7.0, 1.0)] * 2, [line(6.0, 1.0)])

    def test_render_prints_a_row_per_metric_with_the_change(self):
        rows = bench_pairs.summarize(END_TO_END, [line(8.0, 400.0)], [line(6.0, 500.0)])
        text = bench_pairs.render(rows).splitlines()
        assert len(text) == 1 + len(END_TO_END)
        assert text[1].split()[:2] == ["query_ms_p50", "ms"]
        assert "-25.0%" in text[1] and text[1].endswith("1/1")
        assert "+25.0%" in text[2]

    def test_the_repository_s_metrics_name_their_better_side(self):
        spec = json.loads((TOP / "BENCHMARK.json").read_text(encoding="utf-8"))
        assert {m["better"] for m in spec["end_to_end"]} <= {"lower", "higher"}
