"""Tests for BatchNorm, Dropout, and BN fusion."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn import (
    Adam,
    BatchNorm1d,
    BatchNorm2d,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    ReLU,
    Sequential,
    evaluate_accuracy,
    fit,
    fuse_batchnorm,
)
from tests.gradcheck import check_layer_gradients

RNG = np.random.default_rng(0)


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        bn = BatchNorm1d(4)
        x = RNG.normal(3.0, 2.5, (64, 4))
        y = bn.forward(x)
        np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.std(axis=0), 1.0, atol=1e-3)

    def test_eval_mode_uses_running_stats(self):
        bn = BatchNorm1d(3)
        bn.momentum = 0.0  # adopt batch stats immediately
        x = RNG.normal(5.0, 2.0, (128, 3))
        bn.forward(x)
        bn.train_mode(False)
        y = bn.forward(x)
        assert abs(y.mean()) < 0.1

    def test_gradients_1d(self):
        bn = BatchNorm1d(3)
        check_layer_gradients(bn, RNG.normal(size=(6, 3)), atol=1e-4, rtol=1e-3)

    def test_gradients_2d(self):
        bn = BatchNorm2d(2)
        check_layer_gradients(bn, RNG.normal(size=(3, 2, 4, 4)),
                              atol=1e-4, rtol=1e-3)

    def test_eval_gradients_are_linear(self):
        bn = BatchNorm1d(3)
        bn.forward(RNG.normal(size=(32, 3)))  # populate running stats
        bn.train_mode(False)
        check_layer_gradients(bn, RNG.normal(size=(5, 3)), atol=1e-4, rtol=1e-3)

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            BatchNorm1d(4).forward(np.zeros((2, 5)))
        with pytest.raises(ConfigurationError):
            BatchNorm2d(4).forward(np.zeros((2, 3, 4, 4)))

    def test_param_validation(self):
        with pytest.raises(ConfigurationError):
            BatchNorm1d(0)


class TestDropout:
    def test_training_zeroes_and_scales(self):
        drop = Dropout(0.5)
        x = np.ones((200, 50))
        y = drop.forward(x)
        zero_rate = (y == 0).mean()
        assert 0.4 < zero_rate < 0.6
        # Survivors are scaled so the expectation is preserved.
        assert abs(y.mean() - 1.0) < 0.1

    def test_eval_is_identity(self):
        drop = Dropout(0.5)
        drop.train_mode(False)
        x = RNG.normal(size=(4, 6))
        np.testing.assert_array_equal(drop.forward(x), x)

    def test_backward_routes_through_mask(self):
        drop = Dropout(0.5)
        x = np.ones((8, 8))
        y = drop.forward(x)
        g = drop.backward(np.ones_like(y))
        np.testing.assert_array_equal((g == 0), (y == 0))

    def test_p_validation(self):
        with pytest.raises(ConfigurationError):
            Dropout(1.0)


class TestFusion:
    def _conv_bn_model(self, seed=3):
        rng = np.random.default_rng(seed)
        return Sequential(
            [Conv2D(1, 4, 3, rng=rng), BatchNorm2d(4), ReLU(), Flatten(),
             Dense(4 * 6 * 6, 5, rng=rng), BatchNorm1d(5), Dropout(0.3)],
            name="bn-model",
        )

    def test_fused_matches_eval_forward(self):
        model = self._conv_bn_model()
        x = RNG.normal(size=(12, 1, 8, 8))
        # Populate running stats with a few training passes.
        for _ in range(3):
            model.forward(RNG.normal(size=(32, 1, 8, 8)))
        model.train_mode(False)
        expect = model.forward(x)
        fused = fuse_batchnorm(model)
        fused.train_mode(False)
        np.testing.assert_allclose(fused.forward(x), expect, atol=1e-9)

    def test_fused_model_has_no_bn_or_dropout(self):
        model = self._conv_bn_model()
        fused = fuse_batchnorm(model)
        names = [type(l).__name__ for l in fused.layers]
        assert "BatchNorm2d" not in names
        assert "BatchNorm1d" not in names
        assert "Dropout" not in names

    def test_fused_model_quantizes(self):
        from repro.rad import quantize_model

        model = self._conv_bn_model()
        for _ in range(3):
            model.forward(RNG.normal(size=(32, 1, 8, 8)))
        fused = fuse_batchnorm(model)
        fused.train_mode(False)
        calib = RNG.uniform(-0.9, 0.9, (16, 1, 8, 8))
        qm = quantize_model(fused, (1, 8, 8), calib)
        ref = fused.forward(calib)
        got = qm.forward(calib)
        assert np.mean(np.argmax(got, 1) == np.argmax(ref, 1)) > 0.8

    def test_orphan_bn_rejected(self):
        model = Sequential([ReLU(), BatchNorm1d(4)])
        with pytest.raises(ConfigurationError):
            fuse_batchnorm(model)

    def test_mismatched_features_rejected(self):
        model = Sequential([Conv2D(1, 4, 3), BatchNorm2d(5)])
        with pytest.raises(ConfigurationError):
            fuse_batchnorm(model)

    def test_bn_improves_training_stability(self):
        """A BN model must train at a learning rate that is workable —
        smoke test that the layer composes with fit()."""
        rng = np.random.default_rng(5)
        x = rng.normal(size=(128, 8))
        y = (x[:, 0] > 0).astype(int)
        model = Sequential(
            [Dense(8, 16, rng=rng), BatchNorm1d(16), ReLU(), Dense(16, 2, rng=rng)]
        )
        fit(model, x, y, epochs=15, batch_size=16,
            optimizer=Adam(model.parameters(), lr=5e-3),
            rng=np.random.default_rng(6))
        assert evaluate_accuracy(model, x, y) > 0.85
