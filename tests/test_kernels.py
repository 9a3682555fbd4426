"""Differential conformance suite: planned kernels vs legacy references.

The kernel plan cache's contract (``repro.kernels``) is *bit-identity*:
``q15_fft``/``q15_ifft`` and the planned ``QuantBCM.forward``
must produce exactly the bytes the legacy implementations produced — and
leave any :class:`OverflowMonitor` in exactly the same end state — for
every input, including saturating ones.  These tests enforce that over
seeded randomized inputs (kernel level), over the whole model zoo
(runtime level, batched vs per-sample), across pickling (process-boundary
plan rebuild), and for the content-addressed weight-spectra cache
(training-time invalidation).
"""

import pickle

import numpy as np
import pytest

from repro.bcm import bcm_matvec
from repro.errors import ConfigurationError
from repro.experiments.common import (
    RUNTIME_ORDER,
    make_dataset,
    make_runtime,
    prepare_quantized,
)
from repro.fixedpoint import (
    OverflowMonitor,
    q15_fft,
    q15_fft_reference,
    q15_ifft,
    q15_ifft_reference,
)
from repro.kernels import (
    clear_plan_caches,
    get_bcm_plan,
    get_fft_plan,
    plan_cache_stats,
    warm_quantized_model,
    weight_spectra,
)
from repro.nn import BCMDense, Dense, ReLU
from repro.nn.model import Sequential
from repro.nn.optim import SGD
from repro.rad.quantize import QuantBCM, quantize_model


def _assert_triple_equal(a, b, context):
    assert np.array_equal(a[0], b[0]), f"{context}: re mismatch"
    assert np.array_equal(a[1], b[1]), f"{context}: im mismatch"
    assert a[2] == b[2], f"{context}: scale mismatch"
    assert a[0].dtype == b[0].dtype and a[1].dtype == b[1].dtype, context


def _assert_monitors_equal(m_ref, m_plan, context):
    assert m_ref.counts == m_plan.counts, context
    assert m_ref.total_values == m_plan.total_values, context


class TestFFTConformance:
    @pytest.mark.parametrize("n", [2, 4, 8, 32, 128, 512])
    @pytest.mark.parametrize("scaling", ["stage", "none"])
    def test_fft_random_batches(self, n, scaling):
        rng = np.random.default_rng(n * 7 + len(scaling))
        for batch in ((), (1,), (5,), (3, 4)):
            re = rng.integers(-32768, 32768, batch + (n,), dtype=np.int16)
            im = rng.integers(-32768, 32768, batch + (n,), dtype=np.int16)
            m_ref, m_plan = OverflowMonitor(), OverflowMonitor()
            ref = q15_fft_reference(re, im, scaling=scaling, monitor=m_ref)
            plan = q15_fft(re, im, scaling=scaling, monitor=m_plan)
            _assert_triple_equal(ref, plan, f"fft n={n} batch={batch}")
            _assert_monitors_equal(m_ref, m_plan, f"fft n={n} batch={batch}")

    @pytest.mark.parametrize("n", [2, 8, 64, 256])
    @pytest.mark.parametrize("scaling", ["stage", "none"])
    def test_ifft_random_batches(self, n, scaling):
        rng = np.random.default_rng(n * 13 + len(scaling))
        for batch in ((), (4,), (2, 3)):
            re = rng.integers(-32768, 32768, batch + (n,), dtype=np.int16)
            im = rng.integers(-32768, 32768, batch + (n,), dtype=np.int16)
            m_ref, m_plan = OverflowMonitor(), OverflowMonitor()
            ref = q15_ifft_reference(re, im, scaling=scaling, monitor=m_ref)
            plan = q15_ifft(re, im, scaling=scaling, monitor=m_plan)
            _assert_triple_equal(ref, plan, f"ifft n={n} batch={batch}")
            _assert_monitors_equal(m_ref, m_plan, f"ifft n={n}")

    def test_int16_min_imaginary_conjugation(self):
        # -(-32768) must saturate to 32767 on both paths (load-time and
        # output-side conjugation of the IFFT).
        n = 8
        re = np.zeros(n, dtype=np.int16)
        im = np.full(n, -32768, dtype=np.int16)
        ref = q15_ifft_reference(re, im)
        plan = q15_ifft(re, im)
        _assert_triple_equal(ref, plan, "ifft int16-min conjugation")

    def test_saturating_inputs_count_overflows(self):
        # Unscaled FFT of energetic input must saturate, and both paths
        # must agree on the exact event counts.
        rng = np.random.default_rng(0)
        re = rng.integers(20000, 32768, (4, 64), dtype=np.int16)
        im = np.zeros_like(re)
        m_ref, m_plan = OverflowMonitor(), OverflowMonitor()
        ref = q15_fft_reference(re, im, scaling="none", monitor=m_ref)
        plan = q15_fft(re, im, scaling="none", monitor=m_plan)
        _assert_triple_equal(ref, plan, "saturating fft")
        assert m_ref.counts["fft_stage"] > 0
        _assert_monitors_equal(m_ref, m_plan, "saturating fft")

    def test_empty_batch(self):
        re = np.zeros((0, 16), dtype=np.int16)
        im = np.zeros((0, 16), dtype=np.int16)
        _assert_triple_equal(
            q15_fft_reference(re, im), q15_fft(re, im), "empty batch"
        )

    def test_float_reference_agrees_with_plan(self):
        # Planned FFT against the float oracle, loose tolerance (fixed
        # point) — guards against a plan and reference both going wrong.
        from repro.fixedpoint import fft_reference

        rng = np.random.default_rng(3)
        re = rng.integers(-8000, 8000, (2, 64), dtype=np.int16)
        im = np.zeros_like(re)
        out_re, out_im, scale = q15_fft(re, im)
        exact = fft_reference(re, im)
        got = (out_re.astype(np.float64) + 1j * out_im) * 2.0 ** scale
        err = np.max(np.abs(got - exact)) / max(1.0, np.max(np.abs(exact)))
        assert err < 0.01

    def test_invalid_lengths_and_scaling(self):
        bad = np.zeros(12, dtype=np.int16)
        with pytest.raises(ConfigurationError):
            q15_fft(bad, bad)
        good = np.zeros(8, dtype=np.int16)
        with pytest.raises(ConfigurationError):
            q15_fft(good, good, scaling="bogus")

    def test_repeated_calls_reuse_plan_and_stay_identical(self):
        clear_plan_caches()
        rng = np.random.default_rng(21)
        re = rng.integers(-32768, 32768, (3, 32), dtype=np.int16)
        im = rng.integers(-32768, 32768, (3, 32), dtype=np.int16)
        first = q15_fft(re, im)
        again = q15_fft(re, im)
        _assert_triple_equal(first, again, "determinism across plan reuse")
        stats = plan_cache_stats()
        assert stats["fft_plans"] >= 1 and stats["fft_workspaces"] >= 1


class TestQuantBCMConformance:
    @pytest.fixture(scope="class")
    def square_layer(self):
        rng = np.random.default_rng(5)
        model = Sequential([BCMDense(256, 256, 128, rng=rng)])
        qm = quantize_model(model, (256,), rng.uniform(-0.9, 0.9, (16, 256)))
        return qm.layers[0]

    @pytest.mark.parametrize("mode", ["stage", "prescale", "none"])
    def test_random_inputs_all_modes(self, square_layer, mode):
        rng = np.random.default_rng(hash(mode) % 2**32)
        for _ in range(8):
            n = int(rng.integers(1, 9))
            x = rng.integers(-32768, 32768, (n, 256), dtype=np.int16)
            m_ref, m_plan = OverflowMonitor(), OverflowMonitor()
            ref = square_layer.forward_reference(x, monitor=m_ref, mode=mode)
            plan = square_layer.forward(x, monitor=m_plan, mode=mode)
            assert np.array_equal(ref, plan), mode
            assert ref.dtype == plan.dtype == np.int16
            _assert_monitors_equal(m_ref, m_plan, mode)

    def test_monitorless_forward(self, square_layer):
        rng = np.random.default_rng(9)
        x = rng.integers(-2000, 2000, (4, 256), dtype=np.int16)
        assert np.array_equal(
            square_layer.forward_reference(x), square_layer.forward(x)
        )

    def test_nonsquare_padded_layer(self):
        # in/out not divisible by the block: padding + output slicing.
        rng = np.random.default_rng(6)
        model = Sequential([BCMDense(200, 120, 64, rng=rng), ReLU()])
        qm = quantize_model(model, (200,), rng.uniform(-0.9, 0.9, (12, 200)))
        layer = qm.layers[0]
        assert isinstance(layer, QuantBCM)
        x = rng.integers(-32768, 32768, (7, 200), dtype=np.int16)
        for mode in ("stage", "prescale", "none"):
            m_ref, m_plan = OverflowMonitor(), OverflowMonitor()
            ref = layer.forward_reference(x, monitor=m_ref, mode=mode)
            plan = layer.forward(x, monitor=m_plan, mode=mode)
            assert np.array_equal(ref, plan), mode
            _assert_monitors_equal(m_ref, m_plan, mode)

    def test_plan_identity_cache(self, square_layer):
        assert get_bcm_plan(square_layer) is get_bcm_plan(square_layer)

    def test_pickle_roundtrip_rebuilds_plan(self):
        # Fleet workers receive models over pickle; plans must not ride
        # along and the rebuilt plan must give the same bits.
        rng = np.random.default_rng(7)
        model = Sequential([BCMDense(128, 128, 64, rng=rng)])
        qm = quantize_model(model, (128,), rng.uniform(-0.9, 0.9, (8, 128)))
        x = rng.uniform(-0.9, 0.9, (5, 128))
        before = qm.forward_raw(x)
        clone = pickle.loads(pickle.dumps(qm))
        assert clone.layers[0] is not qm.layers[0]
        assert warm_quantized_model(clone) == 1
        assert np.array_equal(clone.forward_raw(x), before)

    def test_batch_vs_single_bit_identity(self, square_layer):
        rng = np.random.default_rng(8)
        xs = rng.integers(-32768, 32768, (6, 256), dtype=np.int16)
        batched = square_layer.forward(xs)
        rows = [square_layer.forward(xs[i : i + 1])[0] for i in range(6)]
        assert np.array_equal(batched, np.stack(rows))


class TestZooRuntimeBatching:
    """Property: ``compute_logits_batch(xs)`` equals stacked
    ``compute_logits(x)`` bit-for-bit for every runtime in the zoo —
    the contract the fast session path's deferred-logits batching and
    the planned kernels both rely on."""

    @pytest.fixture(scope="class", params=["mnist", "har"])
    def task_setup(self, request):
        task = request.param
        qmodel = prepare_quantized(task)
        xs = make_dataset(task, 16, seed=3).x[:5]
        return qmodel, xs

    @pytest.mark.parametrize("name", RUNTIME_ORDER)
    def test_batch_equals_stacked_singles(self, task_setup, name):
        qmodel, xs = task_setup
        runtime = make_runtime(name, qmodel)
        batched = runtime.compute_logits_batch(xs)
        singles = np.stack([runtime.compute_logits(x) for x in xs])
        assert batched.shape == singles.shape
        assert np.array_equal(batched, singles), name
        # And against the base-class fallback (the definitional path).
        from repro.sim.runtime import InferenceRuntime

        fallback = InferenceRuntime.compute_logits_batch(runtime, xs)
        assert np.array_equal(batched, fallback), name


class TestWeightSpectra:
    def test_cache_hit_is_bit_identical(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(3, 2, 16))
        fresh = np.fft.fft(w, axis=-1)
        assert np.array_equal(weight_spectra(w), fresh)
        # Second call returns the cached (read-only) object.
        again = weight_spectra(w)
        assert np.array_equal(again, fresh)
        assert not again.flags.writeable

    def test_mutation_invalidates(self):
        rng = np.random.default_rng(13)
        w = rng.normal(size=(2, 2, 8))
        first = weight_spectra(w).copy()
        w[0, 0, 0] += 1.0  # in-place, like an optimizer step
        second = weight_spectra(w)
        assert not np.array_equal(first, second)
        assert np.array_equal(second, np.fft.fft(w, axis=-1))

    def test_bcm_matvec_matches_uncached_fft(self):
        rng = np.random.default_rng(14)
        w = rng.normal(size=(2, 3, 8))
        x = rng.normal(size=(4, 24))
        expected = np.fft.ifft(
            np.einsum(
                "pqk,nqk->npk",
                np.fft.fft(w, axis=-1),
                np.fft.fft(x.reshape(4, 3, 8), axis=-1),
            ),
            axis=-1,
        ).real.reshape(4, 16)
        got = bcm_matvec(w, x)
        assert np.array_equal(got, expected)
        assert np.array_equal(bcm_matvec(w, x), expected)  # warm call

    def test_training_step_changes_spectra_through_cache(self):
        # BCMDense forward -> backward -> SGD step -> forward must see the
        # updated weights (content addressing, not identity caching).
        rng = np.random.default_rng(15)
        layer = BCMDense(16, 16, 8, rng=rng)
        model = Sequential([layer, Dense(16, 4, rng=rng)])
        x = rng.normal(size=(6, 16))
        y0 = model.forward(x)
        grad = np.ones_like(y0)
        model.backward(grad)
        SGD(model.parameters(), lr=0.1).step()
        y1 = model.forward(x)
        assert not np.allclose(y0, y1)
        # The cached-forward output equals a from-scratch spectral forward.
        fw = np.fft.fft(layer.weight.data, axis=-1)
        fx = np.fft.fft(x.reshape(6, 2, 8), axis=-1)
        manual = np.fft.ifft(
            np.einsum("pqk,nqk->npk", fw, fx), axis=-1
        ).real.reshape(6, 16) + layer.bias.data
        np.testing.assert_array_equal(layer.forward(x), manual)


class TestSessionLevelIdentity:
    """Planned kernels under the full session stack: the fast engine's
    deferred-batched logits and the reference engine's inline logits must
    still agree bit-for-bit (they now share the planned kernels)."""

    def test_session_logits_identical_across_engines(self):
        from repro.hw.board import Device
        from repro.sim import SensingSession

        qmodel = prepare_quantized("mnist")
        xs = make_dataset("mnist", 16, seed=1).x[:4]
        for name in ("ACE", "TAILS"):
            ref = SensingSession(
                Device(), make_runtime(name, qmodel), engine="reference"
            ).run(xs)
            fast = SensingSession(
                Device(), make_runtime(name, qmodel), engine="fast"
            ).run(xs)
            for a, b in zip(ref.results, fast.results):
                assert np.array_equal(a.logits, b.logits)
                assert a.predicted_class == b.predicted_class
