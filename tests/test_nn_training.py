"""Tests for losses, optimizers, and Sequential training."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn import (
    Adam,
    Dataset,
    Dense,
    Flatten,
    Parameter,
    ReLU,
    SGD,
    Sequential,
    SoftmaxCrossEntropy,
    accuracy,
    evaluate_accuracy,
    fit,
    softmax,
    train_test_split,
)


def two_moons(n=200, seed=0):
    """A small linearly-inseparable binary problem."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0, np.pi, n)
    x1 = np.stack([np.cos(t), np.sin(t)], axis=1) + rng.normal(0, 0.1, (n, 2))
    x2 = np.stack([1 - np.cos(t), 0.5 - np.sin(t)], axis=1) + rng.normal(0, 0.1, (n, 2))
    x = np.concatenate([x1, x2])
    y = np.concatenate([np.zeros(n, int), np.ones(n, int)])
    return x, y


class TestLosses:
    def test_softmax_sums_to_one(self):
        p = softmax(np.random.default_rng(0).normal(size=(5, 7)))
        np.testing.assert_allclose(p.sum(axis=1), 1.0)

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        loss, _ = SoftmaxCrossEntropy()(logits, np.array([0, 1]))
        assert loss < 1e-6

    def test_cross_entropy_gradient_numerically(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 1])
        loss_fn = SoftmaxCrossEntropy()
        _, grad = loss_fn(logits, labels)
        eps = 1e-6
        for i in range(4):
            for j in range(3):
                pert = logits.copy()
                pert[i, j] += eps
                hi, _ = loss_fn(pert, labels)
                pert[i, j] -= 2 * eps
                lo, _ = loss_fn(pert, labels)
                assert grad[i, j] == pytest.approx((hi - lo) / (2 * eps), abs=1e-5)

    def test_cross_entropy_label_validation(self):
        with pytest.raises(ConfigurationError):
            SoftmaxCrossEntropy()(np.zeros((2, 3)), np.array([0, 5]))


class TestOptimizers:
    def _quadratic_param(self):
        return Parameter(np.array([4.0, -3.0]))

    def test_sgd_converges_on_quadratic(self):
        p = self._quadratic_param()
        opt = SGD([p], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            p.grad += 2 * p.data
            opt.step()
        assert np.max(np.abs(p.data)) < 1e-4

    def test_sgd_momentum_faster_than_plain(self):
        losses = {}
        for momentum in (0.0, 0.9):
            p = self._quadratic_param()
            opt = SGD([p], lr=0.02, momentum=momentum)
            for _ in range(50):
                opt.zero_grad()
                p.grad += 2 * p.data
                opt.step()
            losses[momentum] = float(np.sum(p.data ** 2))
        assert losses[0.9] < losses[0.0]

    def test_adam_converges_on_quadratic(self):
        p = self._quadratic_param()
        opt = Adam([p], lr=0.1)
        for _ in range(500):
            opt.zero_grad()
            p.grad += 2 * p.data
            opt.step()
        assert np.max(np.abs(p.data)) < 1e-3

    def test_mask_respected_after_step(self):
        p = Parameter(np.array([1.0, 2.0]))
        p.set_mask(np.array([1.0, 0.0]))
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        p.grad += np.array([1.0, 1.0])
        opt.step()
        assert p.data[1] == 0.0

    def test_invalid_lr(self):
        with pytest.raises(ConfigurationError):
            SGD([Parameter(np.zeros(1))], lr=0.0)

    def test_empty_params(self):
        with pytest.raises(ConfigurationError):
            SGD([], lr=0.1)


class TestSequentialTraining:
    def test_mlp_learns_two_moons(self):
        x, y = two_moons(150, seed=3)
        rng = np.random.default_rng(4)
        model = Sequential(
            [Dense(2, 16, rng=rng), ReLU(), Dense(16, 2, rng=rng)], name="moons"
        )
        fit(model, x, y, epochs=40, batch_size=16,
            optimizer=SGD(model.parameters(), lr=0.1, momentum=0.9),
            rng=np.random.default_rng(5))
        assert evaluate_accuracy(model, x, y) > 0.95

    def test_loss_decreases(self):
        x, y = two_moons(100, seed=6)
        rng = np.random.default_rng(7)
        model = Sequential([Dense(2, 8, rng=rng), ReLU(), Dense(8, 2, rng=rng)])
        history = fit(model, x, y, epochs=10, batch_size=16,
                      rng=np.random.default_rng(8))
        assert history[-1] < history[0]

    def test_summary_mentions_layers(self):
        model = Sequential([Dense(4, 3), ReLU()], name="demo")
        text = model.summary()
        assert "Dense" in text and "total params" in text

    def test_empty_sequential_rejected(self):
        with pytest.raises(ConfigurationError):
            Sequential([])

    def test_predict_batches_consistent(self):
        rng = np.random.default_rng(11)
        model = Sequential([Flatten(), Dense(12, 3, rng=rng)])
        x = rng.normal(size=(300, 3, 2, 2))  # two 256-sample batches
        np.testing.assert_array_equal(
            model.predict(x), np.argmax(model.forward(x), axis=1)
        )


class TestDataAndMetrics:
    def test_dataset_validation(self):
        with pytest.raises(ConfigurationError):
            Dataset(np.zeros((3, 2)), np.zeros(4, int), 2)
        with pytest.raises(ConfigurationError):
            Dataset(np.zeros((3, 2)), np.array([0, 1, 5]), 2)

    def test_split_sizes(self):
        x = np.zeros((100, 2))
        y = np.zeros(100, int)
        train, test = train_test_split(x, y, 2)
        assert len(train) == 80 and len(test) == 20

    def test_accuracy(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 0, 3])) == pytest.approx(2 / 3)
