"""Tests for structured pruning projections and ADMM optimization."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential, evaluate_accuracy, fit
from repro.rad import ADMMPruner, PruneSpec, channel_mask, filter_mask, project, structured_mask


def small_conv_model(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            Conv2D(1, 8, 3, rng=rng),   # 8x8 -> 6x6
            ReLU(),
            MaxPool2D(2),               # 6 -> 3
            Flatten(),
            Dense(8 * 3 * 3, 4, rng=rng),
        ],
        name="tiny",
    )


def tiny_image_dataset(n=160, seed=0):
    """4-class blobs-in-quadrants images, easily separable."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 0.1, (n, 1, 8, 8))
    y = np.arange(n) % 4
    for i, lab in enumerate(y):
        r, c = divmod(int(lab), 2)
        x[i, 0, r * 4 : r * 4 + 4, c * 4 : c * 4 + 4] += 0.9
    return np.clip(x, -1, 0.999), y


class TestMasks:
    def _weights(self, seed=0):
        return np.random.default_rng(seed).normal(size=(8, 4, 3, 3))

    def test_filter_mask_keeps_half(self):
        mask = filter_mask(self._weights(), 0.5)
        kept = np.unique(np.nonzero(mask)[0])
        assert len(kept) == 4
        assert set(np.unique(mask)) <= {0.0, 1.0}

    def test_filter_mask_keeps_strongest(self):
        w = np.zeros((4, 1, 2, 2))
        w[2] = 10.0
        w[0] = 1.0
        mask = filter_mask(w, 0.5)
        assert mask[2].all() and mask[0].all()
        assert not mask[1].any() and not mask[3].any()

    def test_channel_mask_shape(self):
        mask = channel_mask(self._weights(), 0.25)
        kept = np.unique(np.nonzero(mask)[1])
        assert len(kept) == 1

    def test_project_zeroes_pruned(self):
        w = self._weights()
        pw = project(w, 0.5, "filter")
        assert np.mean(pw == 0) >= 0.5 - 1e-9

    def test_keep_ratio_validation(self):
        with pytest.raises(ConfigurationError):
            filter_mask(self._weights(), 0.0)
        with pytest.raises(ConfigurationError):
            filter_mask(self._weights(), 1.5)

    def test_non_conv_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            filter_mask(np.zeros((4, 4)), 0.5)

    def test_bad_kind(self):
        with pytest.raises(ConfigurationError):
            structured_mask(self._weights(), 0.5, "rows")


class TestADMM:
    def test_constraint_validation(self):
        model = small_conv_model()
        with pytest.raises(ConfigurationError):
            ADMMPruner(model, {})  # no constraints
        with pytest.raises(ConfigurationError):
            ADMMPruner(model, {4: PruneSpec(0.5)})  # Dense, not Conv2D
        with pytest.raises(ConfigurationError):
            ADMMPruner(model, {99: PruneSpec(0.5)})  # out of range

    def test_prune_spec_validation(self):
        with pytest.raises(ConfigurationError):
            PruneSpec(keep_ratio=0.0)

    def test_residual_shrinks_over_iterations(self):
        x, y = tiny_image_dataset(128, seed=1)
        model = small_conv_model(seed=1)
        fit(model, x, y, epochs=2, batch_size=16, rng=np.random.default_rng(2))
        pruner = ADMMPruner(model, {0: PruneSpec(0.5)})
        pruner.rho = 1.0
        residuals = pruner.run(
            x, y, admm_iterations=8, epochs_per_iteration=2,
            lr=0.05, rng=np.random.default_rng(3),
        )
        # The primal residual ||W - Z||_inf must head to zero.
        assert residuals[-1] < residuals[0]
        assert residuals[-1] < 0.05

    def test_finalize_installs_structured_mask(self):
        x, y = tiny_image_dataset(96, seed=4)
        model = small_conv_model(seed=4)
        pruner = ADMMPruner(model, {0: PruneSpec(0.5)})
        pruner.run(x, y, admm_iterations=1, epochs_per_iteration=1,
                   rng=np.random.default_rng(5))
        masks = pruner.finalize()
        w = model.layers[0].weight.data
        zero_filters = [i for i in range(8) if not w[i].any()]
        assert len(zero_filters) == 4
        assert masks[0].shape == w.shape

    def test_pruned_model_retains_accuracy_after_finetune(self):
        x, y = tiny_image_dataset(200, seed=6)
        model = small_conv_model(seed=6)
        fit(model, x, y, epochs=6, batch_size=16, rng=np.random.default_rng(7))
        dense_acc = evaluate_accuracy(model, x, y)
        pruner = ADMMPruner(model, {0: PruneSpec(0.5)})
        pruner.rho = 5e-2
        pruner.run(x, y, admm_iterations=2, epochs_per_iteration=2,
                   rng=np.random.default_rng(8))
        pruner.finalize()
        fit(model, x, y, epochs=4, batch_size=16, rng=np.random.default_rng(9))
        pruned_acc = evaluate_accuracy(model, x, y)
        assert pruned_acc >= dense_acc - 0.1
        # Pruned filters stayed zero through fine-tuning.
        w = model.layers[0].weight.data
        assert sum(1 for i in range(8) if not w[i].any()) == 4
