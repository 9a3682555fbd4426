"""Run statistics returned by the intermittent machine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np


@dataclass
class RunResult:
    """Outcome of one inference attempt on the simulated device."""

    runtime: str
    completed: bool
    logits: Optional[np.ndarray] = None
    predicted_class: Optional[int] = None
    wall_time_s: float = 0.0  # active + charging
    active_time_s: float = 0.0
    charge_time_s: float = 0.0
    energy_j: float = 0.0
    energy_by_component: Dict[str, float] = field(default_factory=dict)
    checkpoint_energy_j: float = 0.0
    reboots: int = 0
    executed_cycles: float = 0.0
    program_cycles: float = 0.0
    dnf_reason: str = ""

    @property
    def wasted_cycles(self) -> float:
        """Cycles re-executed because of rollbacks (0 for clean runs)."""
        if not self.completed:
            return self.executed_cycles
        return max(0.0, self.executed_cycles - self.program_cycles)

    @property
    def checkpoint_overhead(self) -> float:
        """Checkpoint energy as a fraction of total energy."""
        if self.energy_j <= 0:
            return 0.0
        return self.checkpoint_energy_j / self.energy_j

    def summary(self) -> str:
        if not self.completed:
            return (
                f"{self.runtime}: DNF after {self.reboots} power cycles "
                f"({self.dnf_reason})"
            )
        return (
            f"{self.runtime}: {self.wall_time_s * 1e3:.1f} ms wall "
            f"({self.active_time_s * 1e3:.1f} ms active, "
            f"{self.charge_time_s * 1e3:.1f} ms charging), "
            f"{self.energy_j * 1e3:.3f} mJ, {self.reboots} reboots, "
            f"checkpoint overhead {100 * self.checkpoint_overhead:.2f}%"
        )
