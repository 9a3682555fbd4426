"""Tests for the deployment planner (static supply requirements)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    make_dataset,
    paper_harvester,
    plan_deployment,
    prepare_quantized,
    run_inference,
)
from repro.power import Capacitor, EnergyHarvester, SquareWaveTrace


@pytest.fixture(scope="module")
def mnist_q():
    return prepare_quantized("mnist", seed=0)


class TestPlanNumbers:
    def test_energy_matches_measured_continuous_run(self, mnist_q):
        """The static plan must reproduce the meter of an actual run."""
        plan = plan_deployment(mnist_q, "ACE+FLEX")
        x = make_dataset("mnist", 16, seed=0).x[0]
        measured = run_inference("ACE+FLEX", mnist_q, x)
        assert plan.energy_per_inference_j == pytest.approx(
            measured.energy_j, rel=0.02
        )
        assert plan.active_time_s == pytest.approx(
            measured.active_time_s, rel=0.02
        )

    def test_checkpointing_needs_far_less_storage(self, mnist_q):
        plan = plan_deployment(mnist_q, "ACE+FLEX")
        with_ckpt = plan.min_capacitance_f(checkpointing=True)
        without = plan.min_capacitance_f(checkpointing=False)
        assert with_ckpt < without / 20

    def test_throughput_ceiling_matches_session_measurement(self, mnist_q):
        """plan.max_inference_rate_hz at the paper supply's average power
        must match the sensing-session throughput (energy conservation)."""
        from repro.flex import FlexRuntime
        from repro.hw.board import msp430fr5994
        from repro.power import VoltageMonitor
        from repro.sim.session import SensingSession

        plan = plan_deployment(mnist_q, "ACE+FLEX")
        avg_power = 5e-3 * 0.3  # paper_harvester defaults
        ceiling = plan.max_inference_rate_hz(avg_power)
        harvester = paper_harvester()
        device = msp430fr5994(supply=harvester)
        runtime = FlexRuntime(mnist_q)
        session = SensingSession(device, runtime,
                                 monitor=VoltageMonitor(harvester))
        stats = session.run(make_dataset("mnist", 16, seed=1).x[:4])
        assert stats.completed == 4
        assert stats.throughput_hz == pytest.approx(ceiling, rel=0.15)

    def test_sonic_needs_more_energy(self, mnist_q):
        flex = plan_deployment(mnist_q, "ACE+FLEX")
        sonic = plan_deployment(mnist_q, "SONIC")
        assert sonic.energy_per_inference_j > 5 * flex.energy_per_inference_j


class TestPlanPrediction:
    def test_predicted_min_capacitor_lets_ace_complete(self, mnist_q):
        """Plain ACE must finish on one charge of the planned capacitor
        (plus margin) and fail with a much smaller one."""
        plan = plan_deployment(mnist_q, "ACE")
        cap_f = plan.min_capacitance_f(checkpointing=False) * 1.3
        x = make_dataset("mnist", 16, seed=0).x[0]
        ok = run_inference(
            "ACE", mnist_q, x,
            harvester=EnergyHarvester(SquareWaveTrace(5e-3, 0.05, 0.3),
                                      Capacitor(cap_f)),
        )
        assert ok.completed
        small = run_inference(
            "ACE", mnist_q, x,
            harvester=EnergyHarvester(SquareWaveTrace(5e-3, 0.05, 0.3),
                                      Capacitor(cap_f / 10)),
        )
        assert not small.completed


class TestValidation:
    def test_rate_positive(self, mnist_q):
        plan = plan_deployment(mnist_q)
        with pytest.raises(ConfigurationError):
            plan.min_harvest_power_w(0.0)
