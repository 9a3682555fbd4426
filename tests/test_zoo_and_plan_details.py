"""Detail tests: model zoo geometry, CPU planner internals, LEA limits."""

import numpy as np
import pytest

from repro.baselines.cpu_plan import build_cpu_program
from repro.errors import ConfigurationError
from repro.experiments.common import prepare_quantized
from repro.hw import constants as C
from repro.hw.lea import op_cycles
from repro.rad.zoo import (
    INPUT_SHAPES,
    NUM_CLASSES,
    PAPER_BLOCKS,
    build_model,
)


class TestZooGeometry:
    """The Table II dimensions must fall out of the architectures."""

    def test_mnist_dimensions(self):
        model = build_model("mnist")
        x = np.zeros((1,) + INPUT_SHAPES["mnist"])
        assert model.forward(x).shape == (1, 10)
        fc1 = model.layers[7]
        assert (fc1.in_features, fc1.out_features) == (256, 256)
        assert fc1.block_size == 128

    def test_har_dimensions(self):
        model = build_model("har")
        x = np.zeros((1,) + INPUT_SHAPES["har"])
        assert model.forward(x).shape == (1, 6)
        fc1 = model.layers[3]
        assert (fc1.in_features, fc1.out_features) == (3520, 128)
        assert fc1.block_size == 128

    def test_okg_dimensions(self):
        model = build_model("okg")
        x = np.zeros((1,) + INPUT_SHAPES["okg"])
        assert model.forward(x).shape == (1, 12)
        fc1 = model.layers[3]
        assert (fc1.in_features, fc1.out_features) == (3456, 512)
        assert fc1.block_size == 256

    def test_dense_variants(self):
        for task in ("mnist", "har", "okg"):
            model = build_model(task, None)
            x = np.zeros((2,) + INPUT_SHAPES[task])
            assert model.forward(x).shape == (2, NUM_CLASSES[task])

    def test_block_count_validation(self):
        with pytest.raises(ConfigurationError):
            build_model("mnist", (128, 64))  # mnist has exactly 1 compressible FC

    def test_bad_preset(self):
        with pytest.raises(ConfigurationError):
            build_model("mnist", "tiny")

    def test_paper_blocks_are_powers_of_two(self):
        for task, blocks in PAPER_BLOCKS.items():
            for b in blocks:
                assert b & (b - 1) == 0

    def test_largest_block_within_lea_fft_limit(self):
        assert max(max(b) for b in PAPER_BLOCKS.values()) <= C.LEA_MAX_FFT_POINTS


class TestLeaLimits:
    def test_fft_beyond_limit_rejected(self):
        with pytest.raises(ValueError):
            op_cycles("fft", 512)

    def test_mac_tiling_pays_setup_per_tile(self):
        one_tile = op_cycles("mac", C.LEA_MAX_MAC_ELEMS)
        two_tiles = op_cycles("mac", C.LEA_MAX_MAC_ELEMS + 1)
        assert two_tiles > one_tile + C.LEA_SETUP_CYCLES - 1

    def test_short_vectors_single_setup(self):
        assert op_cycles("mac", 10) == pytest.approx(
            C.LEA_SETUP_CYCLES + 10 * C.LEA_MAC_CYCLES_PER_ELEM
        )


class TestCpuPlanDetails:
    @pytest.fixture(scope="class")
    def mnist_q(self):
        return prepare_quantized("mnist", seed=0)

    def test_sonic_fram_traffic_exceeds_base(self, mnist_q):
        sonic = build_cpu_program(mnist_q, sonic=True)
        base = build_cpu_program(mnist_q, sonic=False)
        sonic_commits = sum(a.commit_words * a.iterations for a in sonic if a.commit)
        assert sonic_commits > 0
        base_commits = sum(a.commit_words for a in base if a.commit)
        assert base_commits == 0

    def test_pruned_channels_skipped(self):
        pruned = prepare_quantized("mnist", pruned=True, seed=0)
        unpruned = prepare_quantized("mnist", pruned=False, seed=0)
        def conv2_iters(qm):
            atoms = build_cpu_program(qm, sonic=False)
            conv2 = [a for a in atoms if a.label == "conv4"]
            return conv2[0].iterations if conv2 else 0
        assert conv2_iters(pruned) == conv2_iters(unpruned) // 2

    def test_bcm_layers_use_software_fft_costs(self, mnist_q):
        atoms = build_cpu_program(mnist_q, sonic=False)
        bcm = [a for a in atoms if a.label.startswith("bcm")]
        assert bcm
        # Software FFT cost must dwarf a trivial loop of the same length.
        per_iter = bcm[0].cycles / bcm[0].iterations
        assert per_iter > 1000

    def test_atom_layers_monotone(self, mnist_q):
        atoms = build_cpu_program(mnist_q, sonic=True)
        layers = [a.layer for a in atoms]
        assert layers == sorted(layers)


class TestErrorsModule:
    def test_hierarchy(self):
        from repro.errors import (
            ConfigurationError,
            InferenceAborted,
            PowerFailureError,
            QuantizationError,
            ReproError,
            ResourceExceededError,
        )

        for exc in (ConfigurationError, ResourceExceededError,
                    QuantizationError, PowerFailureError, InferenceAborted):
            assert issubclass(exc, ReproError)

    def test_inference_aborted_message(self):
        from repro.errors import InferenceAborted

        exc = InferenceAborted(17)
        assert exc.reboots == 17
        assert "17" in str(exc)

    def test_power_failure_default_message(self):
        from repro.errors import PowerFailureError

        assert "brown-out" in str(PowerFailureError())
