"""Deployment planning: what supply does a model need?

Inverts the evaluation question: instead of measuring a given testbed,
compute — from a compiled atom program's energy — the supply a deployment
must provide:

* the **capacitor** a checkpoint-free runtime (plain ACE) would need to
  finish an inference on a single charge;
* the **average harvest power** required to sustain a target inference
  rate with a checkpointing runtime (which only needs the energy, not the
  storage);
* the **maximum atomic energy** FLEX must bridge (its largest
  non-divisible atom), i.e. the real lower bound on storage.

This is the "resource-aware" design loop of RAD extended to the power
domain: the same static analysis that checks FRAM/SRAM budgets can check
supply budgets before anything is deployed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.experiments.common import make_runtime
from repro.hw.board import msp430fr5994
from repro.power.capacitor import Capacitor
from repro.power.harvester import EnergyHarvester
from repro.rad.quantize import QuantizedModel
from repro.sim.atoms import total_cycles


@dataclass(frozen=True)
class DeploymentPlan:
    """Static supply requirements of one (model, runtime) pair."""

    runtime: str
    energy_per_inference_j: float
    active_time_s: float
    #: Largest single non-divisible atom (checkpointed runtimes only need
    #: to bridge this much energy between durable points).
    max_atom_energy_j: float

    def min_capacitance_f(self, *, checkpointing: bool) -> float:
        """Smallest capacitor that avoids livelock, between the default
        3.5 V turn-on and the brown-out voltage.

        Checkpoint-free runtimes must fund the whole inference from one
        charge; checkpointing runtimes only the largest atomic step.
        """
        need = (
            self.max_atom_energy_j if checkpointing
            else self.energy_per_inference_j
        )
        return 2.0 * need / (3.5 ** 2 - Capacitor.v_off ** 2)

    def min_harvest_power_w(self, inferences_per_s: float) -> float:
        """Average harvested power sustaining ``inferences_per_s``."""
        if inferences_per_s <= 0:
            raise ConfigurationError("rate must be positive")
        return (self.energy_per_inference_j * inferences_per_s
                / EnergyHarvester.efficiency)

    def max_inference_rate_hz(self, harvest_power_w: float) -> float:
        """Throughput ceiling under a given average harvest."""
        if harvest_power_w < 0:
            raise ConfigurationError("power must be non-negative")
        if self.energy_per_inference_j <= 0:
            return float("inf")
        return (harvest_power_w * EnergyHarvester.efficiency
                / self.energy_per_inference_j)


def plan_deployment(qmodel: QuantizedModel, runtime_name: str = "ACE+FLEX") -> DeploymentPlan:
    """Analyze one (model, runtime) pair without running a supply."""
    runtime = make_runtime(runtime_name, qmodel)
    device = msp430fr5994()  # continuous power: pure cost accounting
    atoms = runtime.build_atoms()
    total_energy = 0.0
    max_atom = 0.0
    for atom in atoms:
        _, energy = device.atom_cost(atom)
        total_energy += energy
        if not atom.divisible:
            max_atom = max(max_atom, energy)
        else:
            max_atom = max(max_atom, energy / atom.iterations)
        if runtime.commit_enabled and atom.commit:
            count = atom.iterations if atom.divisible else 1
            _, commit_e = device.commit_cost(atom.commit_words)
            total_energy += commit_e * count
    active_time = total_cycles(atoms) * _cycle_s()
    return DeploymentPlan(
        runtime=runtime.name,
        energy_per_inference_j=total_energy,
        active_time_s=active_time,
        max_atom_energy_j=max_atom,
    )


def _cycle_s() -> float:
    from repro.hw import constants as C

    return C.EFFECTIVE_CYCLE_S
