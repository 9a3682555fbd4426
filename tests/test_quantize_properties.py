"""Property tests of the quantization pipeline over random models."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fixedpoint import INT16_MAX, INT16_MIN, OverflowMonitor
from repro.nn import BCMDense, Dense, ReLU, Sequential
from repro.rad import quantize_model


@settings(max_examples=25, deadline=None)
@given(
    in_f=st.integers(min_value=4, max_value=32),
    hidden=st.integers(min_value=4, max_value=32),
    out_f=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=10 ** 6),
)
def test_random_mlp_argmax_agreement(in_f, hidden, out_f, seed):
    """For any small random MLP and in-range data, the 16-bit model must
    agree with the float model on nearly all argmax decisions."""
    rng = np.random.default_rng(seed)
    model = Sequential(
        [Dense(in_f, hidden, rng=rng), ReLU(), Dense(hidden, out_f, rng=rng)]
    )
    calib = rng.uniform(-0.9, 0.9, (24, in_f))
    qm = quantize_model(model, (in_f,), calib)
    x = rng.uniform(-0.9, 0.9, (32, in_f))
    ref = model.forward(x)
    got = qm.forward(x)
    # Ties near-zero margins may flip; require strong majority agreement.
    agreement = np.mean(np.argmax(got, 1) == np.argmax(ref, 1))
    assert agreement >= 0.85


@settings(max_examples=15, deadline=None)
@given(
    blocks=st.sampled_from([4, 8, 16, 32]),
    scale=st.floats(min_value=0.1, max_value=2.0),
    seed=st.integers(min_value=0, max_value=10 ** 6),
)
# Draws whose evaluation peak passes the calibration peak across a power
# of two, so the output saturates at the format's limit.
@example(blocks=8, scale=0.7602677839002318, seed=18694)
@example(blocks=16, scale=1.2479665012753185, seed=549670)
@example(blocks=8, scale=1.38369524224585, seed=526618)
def test_random_bcm_bounded_error(blocks, scale, seed):
    """BCM quantization error stays bounded across weight scales (the
    block-exponent machinery must adapt to the data).

    The output format is sized on the calibration batch, so an evaluation
    batch that outgrows it saturates, and the monitor counts it.  Without
    an overflow the error stays under 8% of the float peak.  With one,
    the bound holds against the float output saturated to the format's
    range, and an element past the bound sits at the saturation limit.
    """
    rng = np.random.default_rng(seed)
    layer = BCMDense(64, 64, blocks, rng=rng)
    layer.weight.data *= scale
    model = Sequential([layer])
    calib = rng.uniform(-0.9, 0.9, (16, 64))
    qm = quantize_model(model, (64,), calib)
    x = rng.uniform(-0.9, 0.9, (16, 64))
    ref = model.forward(x)
    monitor = OverflowMonitor()
    got = qm.forward(x, monitor=monitor)
    denom = max(float(np.max(np.abs(ref))), 1e-6)
    err = np.abs(got - ref)
    if monitor.total == 0:
        assert float(np.max(err)) / denom < 0.08
        return
    scale_out = float(1 << qm.layers[-1].out_frac)
    lo, hi = INT16_MIN / scale_out, INT16_MAX / scale_out
    saturated = np.clip(ref, lo, hi)
    assert float(np.max(np.abs(got - saturated))) / denom < 0.08
    worst = float(got.flat[np.argmax(err)])
    assert float(np.max(err)) / denom < 0.08 or worst in (lo, hi)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_quantized_forward_is_deterministic(seed):
    rng = np.random.default_rng(seed)
    model = Sequential([Dense(8, 4, rng=rng)])
    calib = rng.uniform(-0.9, 0.9, (8, 8))
    qm = quantize_model(model, (8,), calib)
    x = rng.uniform(-0.9, 0.9, (4, 8))
    np.testing.assert_array_equal(qm.forward_raw(x), qm.forward_raw(x))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_protected_modes_never_overflow_in_range(seed):
    """With Algorithm-1 protection, in-range inputs must produce zero
    saturation events in the BCM pipeline."""
    rng = np.random.default_rng(seed)
    model = Sequential([BCMDense(64, 64, 16, rng=rng)])
    calib = rng.uniform(-0.9, 0.9, (16, 64))
    qm = quantize_model(model, (64,), calib)
    x = rng.uniform(-0.9, 0.9, (8, 64))
    for mode in ("stage", "prescale"):
        mon = OverflowMonitor()
        qm.forward(x, monitor=mon, bcm_mode=mode)
        assert mon.counts.get("bcm_mul", 0) == 0
        assert mon.counts.get("fft_stage", 0) == 0
