"""Capacitor energy buffer.

Energy-harvesting frontends charge a capacitor and release the device when
the voltage crosses ``v_on``; execution continues until ``v_off`` (the
brown-out threshold), at which point volatile state is lost.  The paper's
testbed uses 100 uF.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError


class Capacitor:
    """State: terminal voltage; energy is (1/2) C V^2."""

    #: Brown-out threshold and the voltage charging clips at.
    v_off = 1.8
    v_max = 3.6

    def __init__(self, capacitance_f: float = 100e-6, v_on: float = 3.5) -> None:
        if capacitance_f <= 0:
            raise ConfigurationError("capacitance must be positive")
        if not self.v_off < v_on <= self.v_max:
            raise ConfigurationError(
                f"need {self.v_off} < v_on <= {self.v_max}, got {v_on}"
            )
        self.capacitance_f = capacitance_f
        self.v_on = v_on
        self.voltage = v_on  # start charged to the turn-on level

    @property
    def usable_energy_j(self) -> float:
        """Energy available before brown-out."""
        return max(
            0.0,
            0.5 * self.capacitance_f * (self.voltage ** 2 - self.v_off ** 2),
        )

    def draw(self, energy_j: float) -> bool:
        """Remove energy; returns False (and clamps to v_off) on brown-out."""
        if energy_j < 0:
            raise ConfigurationError("cannot draw negative energy")
        if energy_j > self.usable_energy_j:
            self.voltage = self.v_off
            return False
        new_sq = self.voltage ** 2 - 2.0 * energy_j / self.capacitance_f
        self.voltage = math.sqrt(max(new_sq, self.v_off ** 2))
        return True

    def charge(self, energy_j: float) -> None:
        """Add harvested energy, clipping at ``v_max``."""
        if energy_j < 0:
            raise ConfigurationError("cannot charge negative energy")
        new_sq = self.voltage ** 2 + 2.0 * energy_j / self.capacitance_f
        self.voltage = min(math.sqrt(new_sq), self.v_max)

    def reset(self) -> None:
        """Fresh start at the turn-on voltage."""
        self.voltage = self.v_on
