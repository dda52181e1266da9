import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicecf.distance import (
    check_weights,
    heom,
    heom_feature,
    heom_to_rows,
    k_nearest,
    nearest_unlike_neighbor,
)
from nicecf.errors import DistanceError, EncodeError, NoUnlikeNeighborError
from nicecf.explainers import RewardKind, SearchContext, explain_nice
from nicecf.model import train_logistic
from nicecf.tabular import Dataset, FeatureKind, FeatureSpec, FeatureStats, fit_stats
from strategies import FEW_NUMBERS, NUMBERS, mixed_tables, nearest_order


def num_stat(lo, hi, name="x"):
    return FeatureStats(name=name, kind=FeatureKind.NUMERICAL, min=lo, max=hi,
                        range=hi - lo, mean=(lo + hi) / 2, std=1.0)


def cat_stat(*categories, name="c"):
    return FeatureStats(name=name, kind=FeatureKind.CATEGORICAL,
                        categories=tuple(sorted(categories)), mode=sorted(categories)[0])


class TestHeomFeature:
    def test_categorical_overlap(self):
        s = cat_stat("a", "b")
        assert heom_feature(s, "a", "a") == 0.0
        assert heom_feature(s, "a", "b") == 1.0

    def test_numerical_range_normalized(self):
        s = num_stat(0.0, 20.0)
        assert heom_feature(s, 5.0, 10.0) == 0.25

    def test_zero_range_degenerates_to_overlap(self):
        s = num_stat(3.0, 3.0)
        assert heom_feature(s, 3.0, 3.0) == 0.0
        assert heom_feature(s, 3.0, 7.0) == 1.0

    def test_symmetric(self):
        s = num_stat(0.0, 10.0)
        assert heom_feature(s, 2.0, 9.0) == heom_feature(s, 9.0, 2.0)


class TestHeom:
    def test_weighted_sum(self):
        stats = [num_stat(0.0, 10.0, "a"), cat_stat("x", "y", name="b")]
        a = (0.0, "x")
        b = (5.0, "y")
        assert heom(stats, a, b) == pytest.approx(0.5 + 1.0)
        assert heom(stats, a, b, weights=[2.0, 3.0]) == pytest.approx(1.0 + 3.0)

    def test_identity_is_zero(self, tiny_stats):
        x = (25.0, "red")
        assert heom(tiny_stats, x, x) == 0.0

    def test_length_mismatch(self, tiny_stats):
        with pytest.raises(EncodeError, match=r"^row has 1 values, schema has 2$"):
            heom(tiny_stats, (1.0,), (1.0, "red"))

    def test_bad_weights(self, tiny_stats):
        x = (25.0, "red")
        with pytest.raises(DistanceError):
            heom(tiny_stats, x, x, weights=[1.0])
        with pytest.raises(DistanceError):
            heom(tiny_stats, x, x, weights=[0.0, 1.0])
        with pytest.raises(DistanceError):
            heom(tiny_stats, x, x, weights=[-1.0, 1.0])

    @pytest.mark.parametrize("bad", ["a", None, True, float("nan"), float("inf")])
    def test_non_number_weights(self, tiny_stats, bad):
        with pytest.raises(DistanceError, match="positive and finite"):
            check_weights(tiny_stats, [1.0, bad])

    @pytest.mark.parametrize("bad", [True, np.True_, False, float("nan"), np.float64("nan"),
                                     float("inf"), np.float32("inf"), 0, np.int64(0), 0.0,
                                     -1.0, np.int64(-2), np.float32(-0.5)])
    def test_rejected_weight_is_named_with_its_feature(self, tiny_stats, bad):
        message = f"weight for '{tiny_stats[1].name}' must be positive and finite, got {bad!r}"
        with pytest.raises(DistanceError, match=f"^{re.escape(message)}$"):
            check_weights(tiny_stats, [1.0, bad])


# NumPy weights and the Python floats they equal.
NUMPY_WEIGHTS = [
    ([np.int64(2), np.float32(0.5), np.float64(1.0), np.int32(3)], [2.0, 0.5, 1.0, 3.0]),
    (np.ones(4, dtype=np.float32), [1.0, 1.0, 1.0, 1.0]),
    (np.array([3, 1, 2, 1], dtype=np.int64), [3.0, 1.0, 2.0, 1.0]),
]


@pytest.mark.parametrize("numpy_weights, floats", NUMPY_WEIGHTS)
def test_numpy_weights_give_the_bits_of_equal_floats(mixed_dataset, numpy_weights, floats):
    stats = fit_stats(mixed_dataset)
    checked = check_weights(stats, numpy_weights)
    assert [type(w) for w in checked] == [float] * 4
    assert [w.hex() for w in checked] == [w.hex() for w in floats]
    x = mixed_dataset.rows[3]
    assert [v.hex() for v in heom_to_rows(stats, x, mixed_dataset, numpy_weights).tolist()] == [
        v.hex() for v in heom_to_rows(stats, x, mixed_dataset, floats).tolist()]
    for row in mixed_dataset.rows[:20]:
        assert heom(stats, x, row, numpy_weights).hex() == heom(stats, x, row, floats).hex()
    model = train_logistic(stats, mixed_dataset)
    outcomes = []
    for weights in (numpy_weights, floats):
        ctx = SearchContext(mixed_dataset, stats, model, weights)
        assert ctx.weights == checked
        expl = explain_nice(x, RewardKind.PROXIMITY, ctx)
        outcomes.append((expl.counterfactual, expl.anchor_index,
                         [(s.feature, s.reward.hex(), s.score.hex()) for s in expl.trace]))
    assert outcomes[0] == outcomes[1]


class TestHeomToRows:
    def test_bit_identical_to_scalar(self, mixed_dataset):
        stats = fit_stats(mixed_dataset)
        x = mixed_dataset.rows[3]
        weights = [1.5, 0.5, 2.0, 1.0]
        vector = heom_to_rows(stats, x, mixed_dataset, weights)
        for i, row in enumerate(mixed_dataset.rows):
            assert vector[i] == heom(stats, x, row, weights)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bit_identical_to_scalar_on_random_schemas(self, data):
        table, x = data.draw(mixed_tables())
        stats = fit_stats(table)
        n = len(stats)
        weights = data.draw(st.none() | st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
        vector = heom_to_rows(stats, x, table, weights)
        for i, row in enumerate(table.rows):
            assert float(vector[i]).hex() == heom(stats, x, row, weights).hex()

    def test_unknown_category_is_distance_one(self, tiny_dataset, tiny_stats):
        d = heom_to_rows(tiny_stats, (10.0, "unseen"), tiny_dataset)
        assert d[0] == 1.0  # numeric part 0, categorical mismatch 1

    def test_schema_mismatch(self, tiny_dataset):
        wrong = [num_stat(0, 1, "other"), cat_stat("a", name="c2")]
        with pytest.raises(DistanceError):
            heom_to_rows(wrong, (0.5, "a"), tiny_dataset)


class TestKNearest:
    def test_orders_by_distance(self, tiny_dataset, tiny_stats):
        got = k_nearest(tiny_stats, (10.0, "red"), tiny_dataset, 4)
        assert got[0] == 0
        assert got[1] == 2  # same color, 20/30 away beats different color at 10/30

    def test_tie_breaks_by_row_index(self):
        schema = [FeatureSpec("x", FeatureKind.NUMERICAL)]
        ds = Dataset(schema, [(0.0,), (2.0,), (2.0,), (4.0,)])
        stats = fit_stats(ds)
        assert k_nearest(stats, (2.0,), ds, 3) == [1, 2, 0]

    def test_k_validation(self, tiny_dataset, tiny_stats):
        with pytest.raises(DistanceError):
            k_nearest(tiny_stats, (10.0, "red"), tiny_dataset, 0)
        with pytest.raises(DistanceError):
            k_nearest(tiny_stats, (10.0, "red"), tiny_dataset, 5)

    @pytest.mark.parametrize("k", [2.0, "2", True, np.True_, None, np.float64(1.0)])
    def test_k_must_be_an_integer(self, tiny_dataset, tiny_stats, k):
        with pytest.raises(DistanceError, match="^k must be an integer >= 1, got "):
            k_nearest(tiny_stats, (10.0, "red"), tiny_dataset, k)

    @pytest.mark.parametrize("k", [np.int64(2), np.uint16(3), np.int8(4)])
    def test_numpy_integer_k_gives_the_plain_rows(self, tiny_dataset, tiny_stats, k):
        got = k_nearest(tiny_stats, (10.0, "red"), tiny_dataset, k)
        assert got == k_nearest(tiny_stats, (10.0, "red"), tiny_dataset, int(k))
        assert all(type(i) is int for i in got)

    def test_wrong_length_rejected(self, tiny_dataset, tiny_stats):
        for bad in ((10.0,), (10.0, "red", 1.0)):
            with pytest.raises(EncodeError, match=rf"^row has {len(bad)} values, schema has 2$"):
                k_nearest(tiny_stats, bad, tiny_dataset, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_scalar_reference_on_random_schemas(self, data):
        numbers = data.draw(st.sampled_from((NUMBERS, FEW_NUMBERS)))
        table, x = data.draw(mixed_tables(numbers=numbers))
        stats = fit_stats(table)
        n = len(stats)
        weights = data.draw(st.none() | st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
        order = nearest_order(stats, x, table, weights)
        for k in range(1, len(table) + 1):
            assert k_nearest(stats, x, table, k, weights) == order[:k]


class TestNearestUnlikeNeighbor:
    def test_filters_to_correct_opposite_predictions(self, tiny_dataset, tiny_stats):
        # Row 2 is predicted 1 (correct), row 3 predicted 0 (wrong: label 1).
        preds = [0, 0, 1, 0]
        x = (10.0, "red")
        idx = nearest_unlike_neighbor(tiny_stats, x, tiny_dataset, preds, 0)
        assert idx == 2

    def test_misclassified_rows_excluded(self, tiny_dataset, tiny_stats):
        # Row 1 predicted 1 but labeled 0: not eligible despite being nearest.
        preds = [0, 1, 1, 1]
        x = (10.0, "red")
        idx = nearest_unlike_neighbor(tiny_stats, x, tiny_dataset, preds, 0)
        assert idx == 2

    def test_distance_tie_prefers_smaller_index(self):
        schema = [FeatureSpec("x", FeatureKind.NUMERICAL)]
        ds = Dataset(schema, [(0.0,), (2.0,), (6.0,), (8.0,)], labels=[0, 1, 1, 0])
        stats = fit_stats(ds)
        preds = [0, 1, 1, 0]
        # rows 1 and 2 are both eligible and equidistant from 4.0
        assert nearest_unlike_neighbor(stats, (4.0,), ds, preds, 0) == 1

    def test_no_candidate_raises(self, tiny_dataset, tiny_stats):
        preds = [0, 0, 0, 0]
        with pytest.raises(NoUnlikeNeighborError):
            nearest_unlike_neighbor(tiny_stats, (10.0, "red"), tiny_dataset, preds, 0)

    @pytest.mark.parametrize("preds", [[0, 1, 1], [0, 1, 1, 1, 0]])
    def test_one_prediction_per_row_required(self, tiny_dataset, tiny_stats, preds):
        with pytest.raises(DistanceError, match="^one prediction per training row is required$"):
            nearest_unlike_neighbor(tiny_stats, (10.0, "red"), tiny_dataset, preds, 0)

    def test_unlabeled_dataset_rejected(self, tiny_stats):
        schema = [
            FeatureSpec("amount", FeatureKind.NUMERICAL),
            FeatureSpec("color", FeatureKind.CATEGORICAL),
        ]
        ds = Dataset(schema, [(10.0, "red")])
        with pytest.raises(DistanceError):
            nearest_unlike_neighbor(tiny_stats, (10.0, "red"), ds, [1], 0)

    def test_respects_weights(self):
        schema = [
            FeatureSpec("a", FeatureKind.NUMERICAL),
            FeatureSpec("b", FeatureKind.NUMERICAL),
        ]
        ds = Dataset(
            schema,
            [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
            labels=[0, 1, 1, 0],
        )
        stats = fit_stats(ds)
        preds = [0, 1, 1, 0]
        x = (0.0, 0.0)
        # Unweighted: rows 1 and 2 tie, smallest index wins.
        assert nearest_unlike_neighbor(stats, x, ds, preds, 0) == 1
        # Penalizing feature a makes row 2 strictly closer.
        assert nearest_unlike_neighbor(stats, x, ds, preds, 0, weights=[5.0, 1.0]) == 2
