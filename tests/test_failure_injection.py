"""Failure-injection property tests.

The core correctness claim of intermittent computing: for *any* supply
pattern, a checkpointing runtime either completes with exactly the same
result as continuous execution, or reports DNF — never a wrong answer.
Hypothesis drives the supply parameters; the runtimes under test are the
real SONIC/TAILS/FLEX programs on the real MNIST model.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import make_dataset, prepare_quantized, run_inference
from repro.hw.board import msp430fr5994
from repro.power import Capacitor, EnergyHarvester, SquareWaveTrace, StochasticRFTrace, VoltageMonitor
from repro.sim import IntermittentMachine


QMODEL = prepare_quantized("mnist", seed=0)
X = make_dataset("mnist", 16, seed=0).x[0]
EXPECTED_CLASS = int(np.argmax(QMODEL.forward(X[None])[0]))


def _run(runtime_name: str, harvester) -> object:
    return run_inference(runtime_name, QMODEL, X, harvester=harvester)


@settings(max_examples=12, deadline=None)
@given(
    power_mw=st.floats(min_value=2.0, max_value=20.0),
    period_ms=st.floats(min_value=20.0, max_value=200.0),
    duty=st.floats(min_value=0.2, max_value=0.8),
)
def test_flex_never_wrong_under_square_waves(power_mw, period_ms, duty):
    harvester = EnergyHarvester(
        SquareWaveTrace(power_mw * 1e-3, period_ms * 1e-3, duty), Capacitor()
    )
    result = _run("ACE+FLEX", harvester)
    if result.completed:
        assert result.predicted_class == EXPECTED_CLASS
    else:
        assert result.dnf_reason  # explicit reason, not a silent wrong answer


@settings(max_examples=8, deadline=None)
@given(
    mean_power_mw=st.floats(min_value=2.0, max_value=10.0),
    seed=st.integers(min_value=0, max_value=10 ** 6),
)
def test_flex_never_wrong_under_random_rf(mean_power_mw, seed):
    harvester = EnergyHarvester(
        StochasticRFTrace(mean_power_mw * 1e-3, mean_on_s=0.03,
                          mean_off_s=0.04, seed=seed),
        Capacitor(),
    )
    result = _run("ACE+FLEX", harvester)
    if result.completed:
        assert result.predicted_class == EXPECTED_CLASS


@settings(max_examples=6, deadline=None)
@given(
    power_mw=st.floats(min_value=3.0, max_value=8.0),
    duty=st.floats(min_value=0.25, max_value=0.6),
)
def test_sonic_and_tails_complete_and_agree(power_mw, duty):
    for name in ("SONIC", "TAILS"):
        harvester = EnergyHarvester(
            SquareWaveTrace(power_mw * 1e-3, 0.05, duty), Capacitor()
        )
        result = _run(name, harvester)
        assert result.completed, f"{name} DNF: {result.dnf_reason}"
        assert result.predicted_class == EXPECTED_CLASS


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_energy_accounting_conserved(seed):
    """Meter total must equal what the supply delivered minus what remains
    (no energy invented or lost by the bookkeeping)."""
    rng = np.random.default_rng(seed)
    power = float(rng.uniform(3e-3, 8e-3))
    trace = SquareWaveTrace(power, 0.05, 0.4)
    cap = Capacitor()
    harvester = EnergyHarvester(trace, cap)
    device = msp430fr5994(supply=harvester)
    from repro.flex import FlexRuntime

    runtime = FlexRuntime(QMODEL)
    monitor = VoltageMonitor(harvester)
    machine = IntermittentMachine(device, runtime, monitor=monitor)
    result = machine.run(X)
    if not result.completed:
        return
    initial = 0.5 * cap.capacitance_f * (cap.v_on ** 2)
    harvested = trace.energy(0.0, harvester.clock_s) * harvester.efficiency
    final = 0.5 * cap.capacitance_f * (cap.voltage ** 2)
    consumed = device.meter.total_energy_j
    # Harvest above v_max is clipped, so delivered >= consumed + stored delta.
    assert consumed <= initial + harvested - final + 1e-9


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        results = []
        for _ in range(2):
            harvester = EnergyHarvester(
                SquareWaveTrace(5e-3, 0.05, 0.3), Capacitor()
            )
            results.append(_run("ACE+FLEX", harvester))
        a, b = results
        assert a.wall_time_s == b.wall_time_s
        assert a.energy_j == b.energy_j
        assert a.reboots == b.reboots

    def test_dnf_is_reported_not_raised(self):
        harvester = EnergyHarvester(
            SquareWaveTrace(2e-3, 0.05, 0.3), Capacitor()
        )
        result = _run("BASE", harvester)
        assert not result.completed
        assert result.logits is None
