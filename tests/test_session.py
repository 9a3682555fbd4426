"""Tests for multi-inference sensing sessions."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import make_dataset, prepare_quantized
from repro.flex import FlexRuntime
from repro.ace import AceRuntime
from repro.hw.board import msp430fr5994
from repro.power import Capacitor, EnergyHarvester, SquareWaveTrace, VoltageMonitor
from repro.sim.session import SensingSession, SessionStats


@pytest.fixture(scope="module")
def mnist_q():
    return prepare_quantized("mnist", seed=0)


@pytest.fixture(scope="module")
def samples():
    ds = make_dataset("mnist", 16, seed=3)
    return ds.x[:4], ds.y[:4]


def flex_session(mnist_q, harvester=None):
    device = msp430fr5994(supply=harvester)
    runtime = FlexRuntime(mnist_q)
    monitor = VoltageMonitor(harvester) if harvester is not None else None
    return SensingSession(device, runtime, monitor=monitor)


class TestContinuousSession:
    def test_all_complete(self, mnist_q, samples):
        x, y = samples
        stats = flex_session(mnist_q).run(x)
        assert stats.inferences == 4
        assert stats.completed == 4
        assert stats.throughput_hz > 0

    def test_energy_scales_linearly(self, mnist_q, samples):
        x, _ = samples
        one = flex_session(mnist_q).run(x[:1])
        four = flex_session(mnist_q).run(x)
        assert four.total_energy_j == pytest.approx(
            4 * one.total_energy_j, rel=0.05
        )

    def test_accuracy_computation(self, mnist_q, samples):
        x, y = samples
        stats = flex_session(mnist_q).run(x)
        acc = stats.accuracy(y)
        assert 0.0 <= acc <= 1.0

    def test_accuracy_label_mismatch(self, mnist_q, samples):
        x, _ = samples
        stats = flex_session(mnist_q).run(x)
        with pytest.raises(ConfigurationError):
            stats.accuracy([0])


class TestHarvestedSession:
    def test_wall_time_is_per_inference_delta(self, mnist_q, samples):
        """Each result's wall time must be its own duration, not the
        cumulative session clock."""
        x, _ = samples
        harvester = EnergyHarvester(SquareWaveTrace(5e-3, 0.05, 0.3), Capacitor())
        stats = flex_session(mnist_q, harvester).run(x)
        assert stats.completed == 4
        durations = [r.wall_time_s for r in stats.results]
        # All inferences are the same work; wall times must be comparable
        # (not monotonically exploding like a cumulative clock would).
        assert max(durations) < 3 * min(durations)

    def test_session_survives_many_power_failures(self, mnist_q, samples):
        x, y = samples
        harvester = EnergyHarvester(SquareWaveTrace(4e-3, 0.05, 0.3), Capacitor())
        stats = flex_session(mnist_q, harvester).run(x)
        assert stats.completed == 4
        assert stats.total_reboots >= 1
        assert stats.accuracy(y) == flex_session(mnist_q).run(x).accuracy(y)

    def test_give_up_after_repeated_dnf(self, mnist_q, samples):
        x, _ = samples
        harvester = EnergyHarvester(SquareWaveTrace(2e-3, 0.05, 0.3), Capacitor())
        device = msp430fr5994(supply=harvester)
        session = SensingSession(device, AceRuntime(mnist_q), give_up_after_dnf=2)
        stats = session.run(x)
        assert stats.inferences == 2  # stopped after two consecutive DNFs
        assert stats.completed == 0

    def test_summary_text(self, mnist_q, samples):
        x, _ = samples
        stats = flex_session(mnist_q).run(x[:2])
        assert "inferences" in stats.summary()
        assert "ACE+FLEX" in stats.summary()

    def test_bad_give_up(self, mnist_q):
        with pytest.raises(ConfigurationError):
            SensingSession(msp430fr5994(), FlexRuntime(mnist_q), give_up_after_dnf=0)
