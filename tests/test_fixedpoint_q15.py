"""Unit and property tests for the Q15 grid helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QuantizationError
from repro.fixedpoint import (
    INT16_MAX,
    INT16_MIN,
    Q15_ONE,
    best_frac_bits,
    float_to_q15,
    saturate16,
)


class TestConversion:
    def test_zero_maps_to_zero(self):
        assert float_to_q15(0.0) == 0

    def test_half_maps_to_expected_raw(self):
        assert float_to_q15(0.5) == Q15_ONE // 2

    def test_minus_one_is_exact(self):
        assert float_to_q15(-1.0) == INT16_MIN

    def test_plus_one_saturates(self):
        assert float_to_q15(1.0) == INT16_MAX

    def test_above_range_saturates(self):
        assert float_to_q15(3.7) == INT16_MAX
        assert float_to_q15(-3.7) == INT16_MIN

    def test_round_to_nearest(self):
        # 1.5 LSB rounds away from zero under rint's banker's rounding of .5?
        # Use an unambiguous case: 1.4 LSB rounds to 1 LSB.
        lsb = 1.0 / Q15_ONE
        assert float_to_q15(1.4 * lsb) == 1

    def test_array_shape_preserved(self):
        x = np.linspace(-0.9, 0.9, 12).reshape(3, 4)
        q = float_to_q15(x)
        assert q.shape == (3, 4)
        assert q.dtype == np.int16

    def test_nan_raises(self):
        with pytest.raises(QuantizationError):
            float_to_q15(float("nan"))

    def test_inf_raises(self):
        with pytest.raises(QuantizationError):
            float_to_q15(float("inf"))


class TestGeneralFixed:
    def test_best_frac_bits_small_data(self):
        assert best_frac_bits(np.array([0.1, -0.5, 0.9])) == 15

    def test_best_frac_bits_large_data(self):
        # Peak 5.0 needs 3 integer bits -> 12 fractional bits.
        assert best_frac_bits(np.array([5.0, -2.0])) == 12

    def test_best_frac_bits_empty(self):
        assert best_frac_bits(np.array([])) == 15


class TestSaturate:
    def test_saturate16_bounds(self):
        np.testing.assert_array_equal(
            saturate16(np.array([40000, -40000, 5])),
            np.array([INT16_MAX, INT16_MIN, 5], dtype=np.int16),
        )


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-0.99996, max_value=0.99996))
def test_roundtrip_error_within_half_lsb(x):
    back = float(float_to_q15(x)) / Q15_ONE
    assert abs(back - x) <= 0.5 / Q15_ONE + 1e-12


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=1, max_size=32))
def test_best_frac_bits_never_saturates_interior(values):
    x = np.asarray(values)
    frac = best_frac_bits(x)
    limit = 2 ** (15 - frac)
    assert np.max(np.abs(x)) < limit or frac == 0
