"""End-to-end integration tests: RAD training -> quantization -> on-device
intermittent inference, on a reduced workload.

These are the slowest tests in the suite (they actually train models);
they pin the whole-pipeline contracts: accuracy survives compression and
quantization, the deployed model fits the device, and intermittent
execution returns the same predictions as continuous execution.
"""

import numpy as np
import pytest

from repro.experiments.common import make_dataset, paper_harvester, run_inference
from repro.nn.data import train_test_split
from repro.rad import DeviceBudget, RADConfig, run_rad


@pytest.fixture(scope="module")
def mnist_rad_result():
    ds = make_dataset("mnist", 360, seed=0)
    train, test = train_test_split(
        ds.x, ds.y, ds.num_classes, rng=np.random.default_rng(0), name="mnist"
    )
    config = RADConfig(
        task="mnist", epochs=5, admm_iterations=1, admm_epochs=1,
        finetune_epochs=2, seed=0,
    )
    return run_rad(config, train, test), test


class TestRadPipeline:
    def test_float_accuracy_reasonable(self, mnist_rad_result):
        result, _ = mnist_rad_result
        assert result.float_accuracy > 0.75

    def test_quantization_drop_small(self, mnist_rad_result):
        result, _ = mnist_rad_result
        assert result.float_accuracy - result.quantized_accuracy < 0.10

    def test_structured_pruning_applied(self, mnist_rad_result):
        result, _ = mnist_rad_result
        conv2 = result.model.layers[3]
        zero_filters = sum(
            1 for i in range(conv2.weight.data.shape[0])
            if not conv2.weight.data[i].any()
        )
        assert zero_filters == 8  # 2x structured pruning of 16 filters

    def test_fits_device(self, mnist_rad_result):
        result, _ = mnist_rad_result
        assert result.resources.fits(DeviceBudget())

    def test_compressed_weights_small(self, mnist_rad_result):
        result, _ = mnist_rad_result
        # Dense MNIST model would need ~150 KB; BCM + pruning cuts it hard.
        assert result.quantized.weight_bytes < 40 * 1024


class TestDeployedInference:
    def test_intermittent_matches_continuous_predictions(self, mnist_rad_result):
        result, test = mnist_rad_result
        qmodel = result.quantized
        hits = 0
        for i in range(4):
            x = test.x[i]
            cont = run_inference("ACE+FLEX", qmodel, x)
            inter = run_inference(
                "ACE+FLEX", qmodel, x, harvester=paper_harvester()
            )
            assert cont.completed and inter.completed
            assert cont.predicted_class == inter.predicted_class
            hits += int(cont.predicted_class == int(test.y[i]))
        assert hits >= 2  # sanity: the model actually classifies

    def test_quantized_accuracy_on_device_numerics(self, mnist_rad_result):
        result, test = mnist_rad_result
        preds = result.quantized.predict(test.x)
        acc = float(np.mean(preds == test.y))
        assert acc == pytest.approx(result.quantized_accuracy, abs=1e-9)


class TestBatchNormPipeline:
    def test_bn_model_trains_fuses_and_quantizes(self):
        ds = make_dataset("mnist", 300, seed=2)
        train, test = train_test_split(
            ds.x, ds.y, ds.num_classes, rng=np.random.default_rng(2), name="mnist"
        )
        config = RADConfig(task="mnist", epochs=5, admm_iterations=1,
                           finetune_epochs=1, batchnorm=True, seed=2)
        result = run_rad(config, train, test)
        # The deployed model must be BN-free and still classify.
        names = [type(l).__name__ for l in result.model.layers]
        assert "BatchNorm2d" not in names
        assert result.quantized_accuracy > 0.4
        assert result.float_accuracy - result.quantized_accuracy < 0.15
        # Pruning resolved to the correct conv despite the BN layers.
        conv2 = [l for l in result.model.layers
                 if type(l).__name__ == "Conv2D"][1]
        zero_filters = sum(1 for i in range(conv2.weight.data.shape[0])
                           if not conv2.weight.data[i].any())
        assert zero_filters == 8
