"""Tests for RAD normalization, resource analysis and quantization."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, QuantizationError, ResourceExceededError
from repro.fixedpoint import OverflowMonitor
from repro.nn import (
    BCMDense,
    Conv2D,
    CosineDense,
    Dense,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
    Sequential,
)
from repro.rad import (
    DeviceBudget,
    analyze,
    check_fits,
    equalize_ranges,
    layer_output_peaks,
    quantize_model,
)
from repro.rad.zoo import INPUT_SHAPES, build_model


RNG = np.random.default_rng(0)


class TestResources:
    def test_mnist_paper_model_fits(self):
        res = check_fits(build_model("mnist"), INPUT_SHAPES["mnist"], DeviceBudget())
        assert res.fram_bytes < 196 * 1024
        assert res.sram_staging_bytes <= 8 * 1024

    def test_har_and_okg_fit(self):
        check_fits(build_model("har"), INPUT_SHAPES["har"], DeviceBudget())
        check_fits(build_model("okg"), INPUT_SHAPES["okg"], DeviceBudget())

    def test_dense_okg_exceeds_fram(self):
        """The uncompressed OKG model (3456x512 FC...) cannot fit FRAM —
        this is exactly why the paper compresses with BCM."""
        model = build_model("okg", None)
        with pytest.raises(ResourceExceededError):
            check_fits(model, INPUT_SHAPES["okg"], DeviceBudget())

    def test_bcm_shrinks_footprint(self):
        dense = analyze(build_model("mnist", None), INPUT_SHAPES["mnist"])
        bcm = analyze(build_model("mnist"), INPUT_SHAPES["mnist"])
        assert bcm.weight_bytes < dense.weight_bytes

    def test_macs_positive(self):
        res = analyze(build_model("mnist"), INPUT_SHAPES["mnist"])
        assert res.macs > 100_000

    def test_unknown_task(self):
        with pytest.raises(ConfigurationError):
            build_model("cifar")


class TestNormalization:
    def _model(self, seed=0):
        rng = np.random.default_rng(seed)
        return Sequential(
            [Dense(8, 16, rng=rng), ReLU(), Dense(16, 4, rng=rng)], name="m"
        )

    def test_peaks_positive(self):
        model = self._model()
        peaks = layer_output_peaks(model, RNG.normal(size=(16, 8)))
        assert len(peaks) == 3
        assert all(p >= 0 for p in peaks)

    def test_empty_calibration_rejected(self):
        with pytest.raises(ConfigurationError):
            layer_output_peaks(self._model(), np.zeros((0, 8)))

    def test_equalize_preserves_function(self):
        model = self._model(seed=1)
        # Inflate the first layer so there is something to equalize.
        model.layers[0].weight.data *= 30.0
        x = RNG.normal(size=(12, 8))
        before = model.forward(x)
        equalize_ranges(model, x)
        after = model.forward(x)
        np.testing.assert_allclose(after, before, rtol=1e-9, atol=1e-9)

    def test_equalize_reduces_peak(self):
        model = self._model(seed=2)
        model.layers[0].weight.data *= 30.0
        x = RNG.normal(size=(12, 8))
        peak_before = layer_output_peaks(model, x)[0]
        equalize_ranges(model, x)
        peak_after = layer_output_peaks(model, x)[0]
        assert peak_after < peak_before
        assert peak_after <= 1.0 + 1e-6


class TestQuantizeModel:
    def _calib(self, shape, n=24):
        return RNG.uniform(-0.9, 0.9, (n,) + shape)

    def test_dense_model_matches_float(self):
        rng = np.random.default_rng(3)
        model = Sequential([Dense(16, 8, rng=rng), ReLU(), Dense(8, 4, rng=rng)])
        x = self._calib((16,))
        qm = quantize_model(model, (16,), x)
        ref = model.forward(x)
        got = qm.forward(x)
        assert np.mean(np.argmax(got, 1) == np.argmax(ref, 1)) > 0.9

    def test_conv_model_matches_float(self):
        rng = np.random.default_rng(4)
        model = Sequential(
            [Conv2D(1, 4, 3, rng=rng), ReLU(), MaxPool2D(2), Flatten(),
             Dense(4 * 3 * 3, 3, rng=rng)]
        )
        x = self._calib((1, 8, 8))
        qm = quantize_model(model, (1, 8, 8), x)
        ref = model.forward(x)
        got = qm.forward(x)
        rel = np.abs(got - ref).max() / np.abs(ref).max()
        assert rel < 0.05

    def test_bcm_layer_matches_float(self):
        rng = np.random.default_rng(5)
        model = Sequential([BCMDense(64, 64, 32, rng=rng)])
        x = self._calib((64,))
        qm = quantize_model(model, (64,), x)
        ref = model.forward(x)
        got = qm.forward(x)
        rel = np.abs(got - ref).max() / np.abs(ref).max()
        assert rel < 0.05

    def test_bcm_prescale_mode_works(self):
        rng = np.random.default_rng(6)
        model = Sequential([BCMDense(64, 64, 32, rng=rng)])
        x = self._calib((64,))
        qm = quantize_model(model, (64,), x, bcm_mode="prescale")
        ref = model.forward(x)
        got = qm.forward(x)
        rel = np.abs(got - ref).max() / np.abs(ref).max()
        assert rel < 0.10

    def test_bcm_none_mode_overflows(self):
        """Disabling overflow protection must corrupt results — the paper's
        motivation for Algorithm 1's scaling."""
        rng = np.random.default_rng(7)
        model = Sequential([BCMDense(128, 128, 64, rng=rng)])
        x = RNG.uniform(-0.95, 0.95, (16, 128))
        qm = quantize_model(model, (128,), x)
        mon = OverflowMonitor()
        qm.forward(x, monitor=mon, bcm_mode="none")
        assert mon.total > 0

    def test_cosine_dense_fold(self):
        rng = np.random.default_rng(8)
        model = Sequential([CosineDense(12, 5)])
        x = self._calib((12,))
        qm = quantize_model(model, (12,), x)
        ref = model.forward(x)
        got = qm.forward(x)
        # Constant-norm approximation: argmax agreement is the contract.
        assert np.mean(np.argmax(got, 1) == np.argmax(ref, 1)) > 0.8

    def test_unsupported_layer_rejected(self):
        class Square(Layer):
            """An elementwise layer with no on-device kernel."""

            def forward(self, x):
                return x * x

        model = Sequential([Dense(4, 4), Square()])
        with pytest.raises(QuantizationError):
            quantize_model(model, (4,), self._calib((4,)))

    def test_input_shape_mismatch(self):
        model = Sequential([Dense(4, 2)])
        qm = quantize_model(model, (4,), self._calib((4,)))
        with pytest.raises(ConfigurationError):
            qm.forward(np.zeros((2, 5)))

    def test_weight_bytes_counts_pruned_filters(self):
        rng = np.random.default_rng(9)
        model = Sequential(
            [Conv2D(1, 4, 3, rng=rng), ReLU(), Flatten(), Dense(4 * 6 * 6, 2, rng=rng)]
        )
        x = self._calib((1, 8, 8))
        full_bytes = quantize_model(model, (1, 8, 8), x).weight_bytes
        mask = np.ones_like(model.layers[0].weight.data)
        mask[2:] = 0.0
        model.layers[0].weight.set_mask(mask)
        pruned_bytes = quantize_model(model, (1, 8, 8), x).weight_bytes
        assert pruned_bytes < full_bytes

    def test_paper_models_quantize(self):
        for task in ("mnist", "har"):
            model = build_model(task)
            shape = INPUT_SHAPES[task]
            x = self._calib(shape, n=8)
            qm = quantize_model(model, shape, x, name=task)
            assert qm.forward(x).shape[1] == {"mnist": 10, "har": 6}[task]
