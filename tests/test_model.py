import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicecf.errors import ConfigError, DistanceError, EncodeError, TrainError
from nicecf.model import KnnHandle, LogisticHandle, train_knn_classifier, train_logistic
from nicecf.synthetic import make_dataset
from nicecf.tabular import Dataset, FeatureKind, FeatureSpec, fit_stats
from strategies import knn_problems, knn_reference_score, mixed_tables


class TestLogistic:
    def test_learns_separable_data(self):
        data = make_dataset(300, 3, 1, seed=2, separation=2.0)
        stats = fit_stats(data)
        model = train_logistic(stats, data)
        preds = model.predict_batch(data.rows)
        accuracy = float(np.mean(preds == np.asarray(data.labels)))
        assert accuracy > 0.95

    def test_deterministic(self, mixed_dataset):
        stats = fit_stats(mixed_dataset)
        a = train_logistic(stats, mixed_dataset)
        b = train_logistic(stats, mixed_dataset)
        assert np.array_equal(a.coef, b.coef)
        assert a.intercept == b.intercept

    def test_score_batch_matches_single_bitwise(self, mixed_dataset):
        stats = fit_stats(mixed_dataset)
        model = train_logistic(stats, mixed_dataset)
        batch = model.score_batch(mixed_dataset.rows[:20])
        for i, row in enumerate(mixed_dataset.rows[:20]):
            assert batch[i] == model.score(row)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_score_batch_matches_single_on_random_schemas(self, data):
        table, extra = data.draw(mixed_tables())
        labels = data.draw(st.lists(st.integers(0, 1), min_size=len(table), max_size=len(table)))
        table = Dataset(table.schema, table.rows, labels)
        stats = fit_stats(table)
        model = train_logistic(stats, table, epochs=20)
        batch = list(table.rows)
        categorical = [(s, v) for s, v in zip(stats, extra) if s.kind is FeatureKind.CATEGORICAL]
        if all(v in s.categories for s, v in categorical):
            batch.append(extra)
        scores = model.score_batch(batch)
        for i, x in enumerate(batch):
            assert float(scores[i]).hex() == model.score(x).hex()

    def test_predict_threshold_ties_to_class_one(self, tiny_stats):
        flat = LogisticHandle(tiny_stats, np.zeros(4), 0.0)
        assert flat.score((25.0, "red")) == 0.5
        assert flat.predict((25.0, "red")) == 1

    def test_rejects_unlabeled_or_empty(self, tiny_stats):
        schema = [
            FeatureSpec("amount", FeatureKind.NUMERICAL),
            FeatureSpec("color", FeatureKind.CATEGORICAL),
        ]
        unlabeled = Dataset(schema, [(10.0, "red")])
        with pytest.raises(TrainError):
            train_logistic(tiny_stats, unlabeled)
        empty = Dataset(schema, [], labels=[])
        with pytest.raises(TrainError):
            train_logistic(tiny_stats, empty)

    def test_rejects_bad_hyperparameters(self, tiny_dataset, tiny_stats):
        with pytest.raises(ConfigError):
            train_logistic(tiny_stats, tiny_dataset, epochs=0)
        with pytest.raises(ConfigError):
            train_logistic(tiny_stats, tiny_dataset, step=0.0)


class TestKnn:
    def test_vote_fraction(self, tiny_dataset, tiny_stats):
        model = train_knn_classifier(tiny_stats, tiny_dataset, k=3)
        # Neighbors of 10/red: rows 0 (d=0), 2 (d=2/3), 1 (d=4/3); labels 0,1,0.
        assert model.score((10.0, "red")) == pytest.approx(1.0 / 3.0)
        assert model.predict((10.0, "red")) == 0

    def test_rejects_unlabeled_or_empty(self, tiny_dataset, tiny_stats):
        unlabeled = Dataset(tiny_dataset.schema, tiny_dataset.rows)
        with pytest.raises(TrainError, match="^training dataset has no labels$"):
            train_knn_classifier(tiny_stats, unlabeled, k=1)
        empty = Dataset(tiny_dataset.schema, [], labels=[])
        with pytest.raises(TrainError, match="^cannot train on an empty dataset$"):
            train_knn_classifier(tiny_stats, empty, k=1)

    def test_k_must_be_odd(self, tiny_dataset, tiny_stats):
        with pytest.raises(ConfigError):
            train_knn_classifier(tiny_stats, tiny_dataset, k=2)

    def test_k_must_fit_training_set(self, tiny_dataset, tiny_stats):
        with pytest.raises(ConfigError):
            train_knn_classifier(tiny_stats, tiny_dataset, k=5)

    def test_score_batch_matches_single(self, quantized_dataset):
        stats = fit_stats(quantized_dataset)
        model = train_knn_classifier(stats, quantized_dataset, k=5)
        probe = quantized_dataset.rows[:10]
        batch = model.score_batch(probe)
        for i, row in enumerate(probe):
            assert batch[i] == model.score(row)

    def test_memorizes_training_data(self, mixed_dataset):
        stats = fit_stats(mixed_dataset)
        model = train_knn_classifier(stats, mixed_dataset, k=1)
        preds = model.predict_batch(mixed_dataset.rows)
        # k=1 on a training row finds the row itself (up to exact duplicates).
        assert float(np.mean(preds == np.asarray(mixed_dataset.labels))) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(knn_problems(), st.sampled_from((1, 2, 5, KnnHandle.CHUNK_ROWS)))
    def test_score_batch_matches_scalar_reference(self, problem, chunk_rows):
        table, k, weights, batch = problem
        stats = fit_stats(table)
        model = train_knn_classifier(stats, table, k, weights)
        model.CHUNK_ROWS = chunk_rows
        scores = model.score_batch(batch)
        expected = [knn_reference_score(stats, x, table, k, weights) for x in batch]
        assert [float(v).hex() for v in scores] == [v.hex() for v in expected]

    def test_batch_longer_than_one_chunk(self, quantized_dataset):
        stats = fit_stats(quantized_dataset)
        model = train_knn_classifier(stats, quantized_dataset, k=5)
        batch = quantized_dataset.rows
        assert len(batch) > 2 * model.CHUNK_ROWS
        scores = model.score_batch(batch)
        expected = [knn_reference_score(stats, x, quantized_dataset, 5) for x in batch]
        assert [float(v).hex() for v in scores] == [v.hex() for v in expected]

    def test_wrong_length_rejected(self, tiny_dataset, tiny_stats):
        model = train_knn_classifier(tiny_stats, tiny_dataset, k=3)
        for bad in ((10.0,), (10.0, "red", 1.0)):
            with pytest.raises(EncodeError, match=rf"^row has {len(bad)} values, schema has 2$"):
                model.score_batch([(10.0, "red"), bad])

    def test_schema_mismatch_rejected(self, tiny_dataset, tiny_stats):
        renamed = [tiny_stats[1], tiny_stats[0]]
        with pytest.raises(DistanceError):
            train_knn_classifier(renamed, tiny_dataset, k=3)

    def test_predict_batch_memory_stays_chunked(self):
        data = make_dataset(3000, 2, 2, seed=5)
        stats = fit_stats(data)
        model = train_knn_classifier(stats, data, k=5)
        data.columns()
        tracemalloc.start()
        try:
            model.predict_batch(data.rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = len(data)
        # A whole batch x train distance matrix would take n * n * 8 bytes (72 MB).
        assert peak < n * n * 8 / 20


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", ["logistic", "knn"])
def test_non_finite_number_rejected(mixed_dataset, kind, value):
    stats = fit_stats(mixed_dataset)
    train = train_logistic if kind == "logistic" else train_knn_classifier
    model = train(stats, mixed_dataset)
    good = mixed_dataset.rows[0]
    bad = (value,) + good[1:]
    with pytest.raises(EncodeError, match="non-finite"):
        model.score(bad)
    with pytest.raises(EncodeError, match="non-finite"):
        model.score_batch([good, bad])
    with pytest.raises(EncodeError, match="non-finite"):
        model.swap_state(bad, good).scores([1])
    with pytest.raises(EncodeError, match="non-finite"):
        model.swap_state(good, bad).scores([0])
