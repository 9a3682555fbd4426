"""Tests for harvester voltage logging and the ASCII plot."""

import pytest

from repro.errors import ConfigurationError, PowerFailureError
from repro.experiments.reporting import ascii_voltage_plot
from repro.power import Capacitor, ConstantTrace, EnergyHarvester
from tests.supply import harvester


def logged_harvester(power=5e-3):
    h = harvester(ConstantTrace(power), Capacitor(), efficiency=1.0)
    h.enable_logging(interval_s=1e-4)
    return h


class TestVoltageLogging:
    def test_samples_accumulate(self):
        h = logged_harvester()
        for _ in range(20):
            h.draw(5e-6, 1e-3)
        assert len(h.voltage_log) > 5
        times = [t for t, _ in h.voltage_log]
        assert times == sorted(times)

    def test_voltages_in_physical_range(self):
        h = logged_harvester(power=1e-4)
        try:
            for _ in range(500):
                h.draw(5e-6, 1e-3)
        except PowerFailureError:
            pass
        cap = h.capacitor
        for _, v in h.voltage_log:
            assert cap.v_off - 1e-9 <= v <= cap.v_max + 1e-9

    def test_recharge_logged(self):
        h = logged_harvester()
        with pytest.raises(PowerFailureError):
            h.draw(1.0, 1e-3)
        n_before = len(h.voltage_log)
        h.recharge()
        assert len(h.voltage_log) > n_before

    def test_logging_disabled_by_default(self):
        h = EnergyHarvester(ConstantTrace(1e-3), Capacitor())
        h.draw(1e-6, 1e-3)
        assert h.voltage_log is None

    def test_max_samples_bounded(self):
        h = EnergyHarvester(ConstantTrace(5e-3), Capacitor())
        h.MAX_LOG_SAMPLES = 10
        h.enable_logging(interval_s=1e-6)
        for _ in range(100):
            h.draw(1e-9, 1e-3)
        assert len(h.voltage_log) <= 10

    def test_invalid_logging_args(self):
        h = EnergyHarvester(ConstantTrace(1e-3), Capacitor())
        with pytest.raises(ConfigurationError):
            h.enable_logging(interval_s=0.0)


class TestAsciiPlot:
    def test_basic_render(self):
        samples = [(i * 1e-3, 1.8 + 0.01 * i) for i in range(100)]
        text = ascii_voltage_plot(samples)
        assert "*" in text
        assert "V |" in text
        assert "ms" in text

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ascii_voltage_plot([])

    def test_line_width_consistent(self):
        samples = [(i * 1e-3, 2.0 + (i % 7) * 0.2) for i in range(50)]
        text = ascii_voltage_plot(samples)
        lines = text.splitlines()
        plot_lines = [l for l in lines if "|" in l]
        widths = {len(l) for l in plot_lines}
        assert len(widths) <= 2  # labelled rows plus the frame
