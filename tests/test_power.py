"""Tests for the energy-harvesting supply (traces, capacitor, harvester)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, InferenceAborted, PowerFailureError
from repro.power import (
    Capacitor,
    ConstantTrace,
    EnergyHarvester,
    PowerTrace,
    SolarTrace,
    SquareWaveTrace,
    StochasticRFTrace,
    VoltageMonitor,
)


class TestTraces:
    def test_constant_energy(self):
        assert ConstantTrace(2e-3).energy(5.0, 2.0) == pytest.approx(4e-3)

    def test_square_wave_duty(self):
        tr = SquareWaveTrace(10e-3, period_s=1.0, duty=0.25)
        # Integrating a whole period captures duty * power * period.
        assert tr.energy(0.0, 1.0) == pytest.approx(2.5e-3)
        assert tr.power(0.1) == 10e-3
        assert tr.power(0.9) == 0.0

    def test_square_wave_partial_window(self):
        tr = SquareWaveTrace(8e-3, period_s=0.1, duty=0.5)
        # Window entirely inside the off phase.
        assert tr.energy(0.06, 0.03) == 0.0
        # Window straddling on->off boundary.
        assert tr.energy(0.04, 0.02) == pytest.approx(8e-3 * 0.01)

    def test_square_wave_validation(self):
        with pytest.raises(ConfigurationError):
            SquareWaveTrace(1e-3, period_s=0.0)
        with pytest.raises(ConfigurationError):
            SquareWaveTrace(1e-3, period_s=1.0, duty=0.0)

    def test_stochastic_reproducible(self):
        a = StochasticRFTrace(1e-3, seed=3)
        b = StochasticRFTrace(1e-3, seed=3)
        assert a.power(0.123) == b.power(0.123)
        assert a.energy(0.0, 1.0) == b.energy(0.0, 1.0)
        assert a.power(500.123) == b.power(500.123)
        assert a.energy(499.7, 1.0) == b.energy(499.7, 1.0)

    def test_stochastic_power_wraps_negative_times(self):
        # power() reduces t onto the trace as energy() does, so a negative
        # time reads the tail of the previous horizon copy, not 0.0.
        tr = StochasticRFTrace(1.5e-3, mean_on_s=0.024, mean_off_s=0.036,
                               seed=0)
        for t in (-0.01, -0.05, -1.3, -600.5):
            local = t - math.floor(t / tr.horizon_s) * tr.horizon_s
            assert tr.power(t) == tr.power(local)
        assert tr.power(-0.01) == tr.power(-0.01 + tr.horizon_s) > 0.0
        assert tr.power(-0.01) == pytest.approx(
            tr.energy(-0.01, 1e-6) / 1e-6, rel=1e-9)

    def test_stochastic_mean_power_reasonable(self):
        tr = StochasticRFTrace(2e-3, seed=1, horizon_s=100.0)
        mean = tr.energy(0.0, 100.0) / 100.0
        assert 0.5e-3 < mean < 6e-3

    def test_solar_nonnegative(self):
        tr = SolarTrace(5e-3, period_s=10.0)
        assert tr.power(7.5) == 0.0  # negative half clipped
        assert tr.power(2.5) == pytest.approx(5e-3)

    def test_solar_closed_form_full_period(self):
        # One period of the clipped sine integrates to P*T/pi exactly.
        tr = SolarTrace(5e-3, period_s=1.0)
        assert tr.energy(0.0, 1.0) == pytest.approx(5e-3 / math.pi, rel=1e-12)
        assert tr.energy(0.5, 0.5) == 0.0  # entirely in the clipped half
        assert tr.energy(0.0, 0.0) == 0.0
        assert SolarTrace(0.0, 1.0).energy(0.0, 10.0) == 0.0

    def test_solar_closed_form_matches_numeric_integration(self):
        """The generic numeric path (kept as this cross-check) must agree
        with the closed-form clipped-sine integral."""
        tr = SolarTrace(5e-3, period_s=1.0)
        for t, dt in [(0.0, 1.0), (0.1, 0.3), (0.4, 0.2), (2.7, 5.9),
                      (123.456, 0.25), (-1.3, 2.0)]:
            numeric = PowerTrace.energy(tr, t, dt)
            assert tr.energy(t, dt) == pytest.approx(numeric, rel=1e-5,
                                                     abs=1e-12)

    def test_negative_dt_rejected(self):
        with pytest.raises(ConfigurationError):
            ConstantTrace(1e-3).energy(0.0, -1.0)


class TestCapacitor:
    def test_full_swing_energy_100uf(self):
        cap = Capacitor(100e-6, v_on=3.5, v_off=1.8)
        expected = 0.5 * 100e-6 * (3.5 ** 2 - 1.8 ** 2)
        assert cap.full_swing_energy_j == pytest.approx(expected)

    def test_draw_success_lowers_voltage(self):
        cap = Capacitor()
        v0 = cap.voltage
        assert cap.draw(1e-5)
        assert cap.voltage < v0

    def test_draw_too_much_browns_out(self):
        cap = Capacitor()
        assert not cap.draw(1.0)
        assert cap.voltage == cap.v_off
        assert not cap.is_on

    def test_charge_clips_at_vmax(self):
        cap = Capacitor()
        cap.charge(10.0)
        assert cap.voltage == cap.v_max

    def test_invalid_thresholds(self):
        with pytest.raises(ConfigurationError):
            Capacitor(v_on=1.0, v_off=2.0)

    def test_draw_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            Capacitor().draw(-1.0)


class TestHarvester:
    def _harv(self, power=5e-3):
        return EnergyHarvester(ConstantTrace(power), Capacitor(), efficiency=1.0)

    def test_draw_advances_clock(self):
        h = self._harv()
        h.draw(1e-5, 1e-3)
        assert h.clock_s == pytest.approx(1e-3)

    def test_draw_beyond_capacity_fails(self):
        h = EnergyHarvester(ConstantTrace(0.0), Capacitor())
        with pytest.raises(PowerFailureError):
            h.draw(1.0, 1e-3)
        assert h.failures == 1

    def test_recharge_restores_v_on(self):
        h = self._harv()
        with pytest.raises(PowerFailureError):
            h.draw(1.0, 1e-3)
        waited = h.recharge()
        assert h.voltage >= h.capacitor.v_on
        assert waited > 0
        assert h.charge_time_s == pytest.approx(waited)

    def test_dead_supply_aborts(self):
        h = EnergyHarvester(
            ConstantTrace(0.0), Capacitor(), charge_timeout_s=0.05
        )
        h.capacitor.voltage = h.capacitor.v_off
        with pytest.raises(InferenceAborted):
            h.recharge()

    def test_harvest_during_draw_credits_energy(self):
        strong = EnergyHarvester(ConstantTrace(50e-3), Capacitor(), efficiency=1.0)
        # Draw less than what is harvested over the window: no failure and
        # the voltage should not be lower than where it started.
        v0 = strong.voltage
        strong.draw(1e-6, 1e-3)
        assert strong.voltage >= v0 - 1e-9

    def test_reset(self):
        h = self._harv()
        h.draw(1e-5, 1e-3)
        h.reset()
        assert h.clock_s == 0.0
        assert h.voltage == h.capacitor.v_on

    def test_efficiency_validation(self):
        with pytest.raises(ConfigurationError):
            EnergyHarvester(ConstantTrace(1e-3), Capacitor(), efficiency=0.0)


class TestMonitor:
    def test_warn_threshold(self):
        h = EnergyHarvester(ConstantTrace(0.0), Capacitor())
        mon = VoltageMonitor(h, v_warn=2.2)
        assert not mon.is_low()
        h.capacitor.voltage = 2.0
        assert mon.is_low()
        assert mon.warnings == 1

    def test_predicts_failure(self):
        h = EnergyHarvester(ConstantTrace(0.0), Capacitor())
        mon = VoltageMonitor(h)
        assert mon.predicts_failure(h.available_energy_j)
        assert not mon.predicts_failure(1e-9)

    def test_v_warn_validation(self):
        h = EnergyHarvester(ConstantTrace(0.0), Capacitor())
        with pytest.raises(ConfigurationError):
            VoltageMonitor(h, v_warn=5.0)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=1e-7, max_value=1e-4),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=1e-3, max_value=1.0),
)
def test_property_square_wave_energy_bounded(power, t0, dt):
    tr = SquareWaveTrace(power, period_s=0.1, duty=0.5)
    e = tr.energy(t0, dt)
    assert 0.0 <= e <= power * dt + 1e-15


@pytest.mark.parametrize("trace", [
    ConstantTrace(2e-3),
    SquareWaveTrace(5e-3, period_s=0.05, duty=0.3),
    StochasticRFTrace(1.5e-3, seed=7),
    SolarTrace(5e-3, period_s=1.0),
], ids=["constant", "square", "rf", "solar"])
@settings(max_examples=40, deadline=None)
@given(
    t=st.floats(min_value=0.0, max_value=30.0),
    a=st.floats(min_value=0.0, max_value=5.0),
    b=st.floats(min_value=0.0, max_value=5.0),
)
def test_property_trace_energy_additivity(trace, t, a, b):
    """Windowed energies must be additive for every trace family:
    energy(t, a) + energy(t + a, b) == energy(t, a + b) to fp tolerance.
    (EmpiricalTrace's version, including end policies, lives in
    tests/test_corpus.py.)

    The absolute tolerance admits StochasticRFTrace's designed segment
    -walk epsilon: its loop stops once the remaining window is <= 1e-12 s,
    so every window may drop up to peak_power * 1e-12 J (~6e-15 here)."""
    lhs = trace.energy(t, a) + trace.energy(t + a, b)
    rhs = trace.energy(t, a + b)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-13)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-9, max_value=1e-4))
def test_property_capacitor_draw_charge_roundtrip(energy):
    cap = Capacitor()
    v0 = cap.voltage
    if cap.draw(energy):
        cap.charge(energy)
        assert cap.voltage == pytest.approx(v0, rel=1e-9)
