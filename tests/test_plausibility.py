import math

import numpy as np
import pytest

from nicecf.errors import ConfigError, EncodeError, TrainError
from nicecf.plausibility import (
    AEConfig,
    AEModel,
    ae_error,
    ae_scorer,
    loss_and_gradients,
    swap_state,
    train_autoencoder,
)
from nicecf.synthetic import make_dataset
from nicecf.tabular import Dataset, FeatureKind, FeatureSpec, fit_stats
from test_model import BAD_DESCENT, NUMPY_DESCENT


class TestAeError:
    def test_forced_perfect_reconstruction_gives_zero(self, tiny_stats):
        # w1=0 makes the hidden layer constant, w2=0 ignores it, and b2 can
        # then pin the output to any vector; choose the probe's encoding.
        from nicecf.tabular import encode

        probe = (25.0, "green")
        v = encode(tiny_stats, probe)
        m, h = v.shape[0], 2
        ae = AEModel(np.zeros((m, h)), np.zeros(h), np.zeros((h, m)), v.copy())
        assert ae_error(ae, tiny_stats, probe) == 0.0

    def test_known_value(self):
        # encoded x = [0, 1], reconstruction pinned to [0.5, 0.5]
        schema = [FeatureSpec("c", FeatureKind.CATEGORICAL)]
        ds = Dataset(schema, [("a",), ("b",)])
        stats = fit_stats(ds)
        ae = AEModel(np.zeros((2, 1)), np.zeros(1), np.zeros((1, 2)), np.array([0.5, 0.5]))
        assert ae_error(ae, stats, ("a",)) == pytest.approx(0.25)

    def test_non_negative_on_trained_model(self, mixed_dataset):
        stats = fit_stats(mixed_dataset)
        ae = train_autoencoder(mixed_dataset, AEConfig(epochs=50), stats)
        for row in mixed_dataset.rows[:20]:
            assert ae_error(ae, stats, row) >= 0.0

    def test_training_row_more_plausible_than_outlier(self):
        data = make_dataset(200, 3, 1, seed=6)
        stats = fit_stats(data)
        ae = train_autoencoder(data, AEConfig(epochs=400, step=0.5), stats)
        inlier = data.rows[0]
        outlier = (1e4, -1e4, 1e4, inlier[3])
        assert ae_error(ae, stats, inlier) < ae_error(ae, stats, outlier)

    def test_width_mismatch_rejected(self, tiny_stats):
        ae = AEModel(np.zeros((2, 1)), np.zeros(1), np.zeros((1, 2)), np.zeros(2))
        with pytest.raises(ConfigError):
            ae_error(ae, tiny_stats, (25.0, "red"))


class TestTraining:
    def test_loss_decreases(self, mixed_dataset):
        stats = fit_stats(mixed_dataset)
        ae = train_autoencoder(mixed_dataset, AEConfig(epochs=100), stats)
        assert ae.loss_history[-1] < ae.loss_history[0]

    def test_loss_monotone_for_small_step(self, mixed_dataset):
        stats = fit_stats(mixed_dataset)
        ae = train_autoencoder(mixed_dataset, AEConfig(epochs=300, step=0.01), stats)
        history = np.asarray(ae.loss_history)
        assert np.all(np.diff(history) <= 1e-9)

    def test_same_seed_bit_identical(self, mixed_dataset):
        stats = fit_stats(mixed_dataset)
        a = train_autoencoder(mixed_dataset, AEConfig(epochs=40, seed=5), stats)
        b = train_autoencoder(mixed_dataset, AEConfig(epochs=40, seed=5), stats)
        for pa, pb in zip((a.w1, a.b1, a.w2, a.b2), (b.w1, b.b1, b.w2, b.b2)):
            assert np.array_equal(pa, pb)

    def test_seed_changes_weights(self, mixed_dataset):
        stats = fit_stats(mixed_dataset)
        a = train_autoencoder(mixed_dataset, AEConfig(epochs=5, seed=1), stats)
        b = train_autoencoder(mixed_dataset, AEConfig(epochs=5, seed=2), stats)
        assert not np.array_equal(a.w1, b.w1)

    def test_needs_two_rows(self, tiny_stats):
        schema = [
            FeatureSpec("amount", FeatureKind.NUMERICAL),
            FeatureSpec("color", FeatureKind.CATEGORICAL),
        ]
        ds = Dataset(schema, [(10.0, "red")], labels=[0])
        with pytest.raises(TrainError):
            train_autoencoder(ds, AEConfig(), tiny_stats)

    def test_degenerate_rows_warn_but_train(self, caplog):
        schema = [FeatureSpec("x", FeatureKind.NUMERICAL)]
        ds = Dataset(schema, [(1.0,), (1.0,), (1.0,)])
        with caplog.at_level("WARNING"):
            ae = train_autoencoder(ds, AEConfig(epochs=5), fit_stats(ds))
        assert ae.width == 1
        assert any("degenerate" in r.message for r in caplog.records)

    def test_bad_config(self):
        for setting in BAD_DESCENT:
            with pytest.raises(ConfigError, match=f"^{next(iter(setting))} must be"):
                AEConfig(**setting)

    def test_takes_numpy_scalars(self, tiny_dataset, tiny_stats):
        ae = train_autoencoder(tiny_dataset, AEConfig(**NUMPY_DESCENT), tiny_stats)
        assert all(np.isfinite(ae_error(ae, tiny_stats, x)) for x in tiny_dataset.rows)

    @pytest.mark.parametrize("seed", [1.5, True, np.True_, "3", None, np.float64(3.0)])
    def test_rejects_a_seed_that_is_not_an_integer(self, seed):
        with pytest.raises(ConfigError, match="^seed must be an integer"):
            AEConfig(seed=seed)

    @pytest.mark.parametrize("seed, numpy_seed", [
        (3, np.int64(3)), (-3, np.int64(-3)), (2**64 - 1, np.uint64(2**64 - 1)),
    ])
    def test_numpy_integer_seed_gives_the_same_weights(self, tiny_dataset, tiny_stats,
                                                        seed, numpy_seed):
        plain = train_autoencoder(tiny_dataset, AEConfig(epochs=2, seed=seed), tiny_stats)
        got = train_autoencoder(tiny_dataset, AEConfig(epochs=2, seed=numpy_seed), tiny_stats)
        for a, b in zip((got.w1, got.b1, got.w2, got.b2), (plain.w1, plain.b1, plain.w2, plain.b2)):
            assert a.tobytes() == b.tobytes()


class TestGradients:
    def test_matches_central_differences(self):
        # 3-feature fixture, modest size so finite differences stay clean.
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(6, 3))
        w1 = rng.uniform(-0.5, 0.5, size=(3, 2))
        b1 = rng.uniform(-0.5, 0.5, size=2)
        w2 = rng.uniform(-0.5, 0.5, size=(2, 3))
        b2 = rng.uniform(-0.5, 0.5, size=3)
        _, grads = loss_and_gradients(w1, b1, w2, b2, X)
        params = [w1, b1, w2, b2]
        eps = 1e-6
        for p_idx, param in enumerate(params):
            numeric = np.zeros_like(param)
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                original = param[idx]
                param[idx] = original + eps
                up, _ = loss_and_gradients(*params, X)
                param[idx] = original - eps
                down, _ = loss_and_gradients(*params, X)
                param[idx] = original
                numeric[idx] = (up - down) / (2 * eps)
            analytic = grads[p_idx]
            scale = np.maximum(np.abs(numeric), np.abs(analytic))
            rel = np.abs(analytic - numeric) / np.where(scale > 1e-12, scale, 1.0)
            assert float(rel.max()) < 1e-5

    def test_zero_gradient_at_perfect_reconstruction(self):
        # Output pinned exactly to the single input: loss and gradients vanish
        # for the output layer; hidden gradients vanish through d_out = 0.
        X = np.array([[0.3, 0.7]])
        w1 = np.zeros((2, 1))
        b1 = np.zeros(1)
        w2 = np.zeros((1, 2))
        b2 = X[0].copy()
        loss, grads = loss_and_gradients(w1, b1, w2, b2, X)
        assert loss == 0.0
        for g in grads:
            assert np.all(g == 0.0)


class TestPersistence:
    """``AEModel`` checks the parameters it is given, wherever they come from."""

    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            AEModel(np.zeros((2, 1)), np.zeros(2), np.zeros((1, 2)), np.zeros(2))
        with pytest.raises(ConfigError):
            AEModel(np.full((2, 1), np.nan), np.zeros(1), np.zeros((1, 2)), np.zeros(2))


def test_scorer_closure(mixed_dataset):
    stats = fit_stats(mixed_dataset)
    ae = train_autoencoder(mixed_dataset, AEConfig(epochs=20), stats)
    scorer = ae_scorer(ae, stats)
    x = mixed_dataset.rows[0]
    assert scorer(x) == ae_error(ae, stats, x)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_scorer_rejects_non_finite_number(mixed_dataset, value):
    stats = fit_stats(mixed_dataset)
    scorer = ae_scorer(train_autoencoder(mixed_dataset, AEConfig(epochs=5), stats), stats)
    good = mixed_dataset.rows[0]
    bad = (value,) + good[1:]
    with pytest.raises(EncodeError, match="non-finite"):
        scorer(bad)
    with pytest.raises(EncodeError, match="non-finite"):
        swap_state(scorer, bad, good).scores([1])
    with pytest.raises(EncodeError, match="non-finite"):
        swap_state(scorer, good, bad).scores([0])
