"""Voltage monitor used by FLEX's on-demand checkpointing.

Real deployments use an ADC/comparator watching the storage capacitor;
FLEX checkpoints "the latest intermediate result" when the voltage sinks
below a warning level (Section III-C, "Other layer").
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.power.harvester import EnergyHarvester


class VoltageMonitor:
    """Threshold comparator over the harvester's capacitor voltage."""

    def __init__(self, harvester: EnergyHarvester, v_warn: float = 2.2) -> None:
        cap = harvester.capacitor
        if not cap.v_off < v_warn < cap.v_on:
            raise ConfigurationError(
                f"v_warn must lie inside (v_off={cap.v_off}, v_on={cap.v_on}), "
                f"got {v_warn}"
            )
        self.harvester = harvester
        self.v_warn = v_warn
        self.warnings = 0

    def is_low(self) -> bool:
        """True when the supply is close to brown-out."""
        low = self.harvester.voltage <= self.v_warn
        if low:
            self.warnings += 1
        return low
