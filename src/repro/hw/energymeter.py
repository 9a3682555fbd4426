"""Time and energy accounting ledger.

Every simulated action books its duration and energy under a *component*
(cpu / lea / dma / fram / sram / idle) and optionally a *purpose*
(compute / data-movement / checkpoint / wasted).  Figure 7(c)'s energy
breakdown and the checkpoint-overhead evaluation (Section IV-A.5) read
directly from this ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

COMPONENTS = ("cpu", "lea", "dma", "fram", "sram", "idle")
PURPOSES = ("compute", "data", "checkpoint", "wasted", "idle")


@dataclass
class EnergyMeter:
    """Accumulates per-component and per-purpose time/energy."""

    energy_j: Dict[str, float] = field(default_factory=dict)
    time_s: Dict[str, float] = field(default_factory=dict)
    purpose_energy_j: Dict[str, float] = field(default_factory=dict)

    def record(
        self,
        component: str,
        *,
        time_s: float = 0.0,
        energy_j: float = 0.0,
        purpose: str = "compute",
    ) -> None:
        """Book ``energy_j`` joules over ``time_s`` seconds."""
        if component not in COMPONENTS:
            raise ValueError(f"unknown component {component!r}")
        if purpose not in PURPOSES:
            raise ValueError(f"unknown purpose {purpose!r}")
        if time_s < 0 or energy_j < 0:
            raise ValueError("time and energy must be non-negative")
        self.energy_j[component] = self.energy_j.get(component, 0.0) + energy_j
        self.time_s[component] = self.time_s.get(component, 0.0) + time_s
        self.purpose_energy_j[purpose] = (
            self.purpose_energy_j.get(purpose, 0.0) + energy_j
        )

    @property
    def total_energy_j(self) -> float:
        return sum(self.energy_j.values())

    @property
    def total_time_s(self) -> float:
        return sum(self.time_s.values())

    def purpose_of(self, purpose: str) -> float:
        return self.purpose_energy_j.get(purpose, 0.0)

    def snapshot(self) -> "EnergyMeter":
        """An independent copy (for before/after diffs)."""
        return EnergyMeter(
            energy_j=dict(self.energy_j),
            time_s=dict(self.time_s),
            purpose_energy_j=dict(self.purpose_energy_j),
        )

    def diff(self, earlier: "EnergyMeter") -> "EnergyMeter":
        """Ledger delta since ``earlier`` (a snapshot of this meter)."""
        out = EnergyMeter()
        for key, val in self.energy_j.items():
            out.energy_j[key] = val - earlier.energy_j.get(key, 0.0)
        for key, val in self.time_s.items():
            out.time_s[key] = val - earlier.time_s.get(key, 0.0)
        for key, val in self.purpose_energy_j.items():
            out.purpose_energy_j[key] = val - earlier.purpose_energy_j.get(key, 0.0)
        return out

    def reset(self) -> None:
        self.energy_j.clear()
        self.time_s.clear()
        self.purpose_energy_j.clear()

    def summary(self) -> str:
        lines = [f"total: {self.total_energy_j * 1e3:.3f} mJ over "
                 f"{self.total_time_s * 1e3:.1f} ms"]
        for comp in sorted(self.energy_j):
            lines.append(
                f"  {comp:>5}: {self.energy_j[comp] * 1e3:8.3f} mJ "
                f"({self.time_s.get(comp, 0.0) * 1e3:8.1f} ms)"
            )
        return "\n".join(lines)
