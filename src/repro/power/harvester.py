"""Energy harvester: trace + capacitor + wall clock.

The harvester is the device's supply.  Executing work draws energy from
the capacitor (while harvest trickles in); when the capacitor hits the
brown-out threshold a :class:`~repro.errors.PowerFailureError` propagates
to the intermittent machine, which then calls :meth:`recharge` to advance
the wall clock until the turn-on voltage is reached again.
"""

from __future__ import annotations

from repro.errors import ConfigurationError, InferenceAborted, PowerFailureError
from repro.power.capacitor import Capacitor
from repro.power.traces import PowerTrace


class EnergyHarvester:
    """Supply model combining a power trace and a storage capacitor."""

    #: Share of the trace's power that reaches the capacitor.
    efficiency = 0.8
    #: :meth:`recharge` advances the clock in steps of this length, and
    #: gives up (a dead supply) after this long.
    charge_step_s = 1e-3
    charge_timeout_s = 600.0
    #: Bound on :meth:`enable_logging`'s voltage log.
    MAX_LOG_SAMPLES = 100000

    def __init__(self, trace: PowerTrace, capacitor: Capacitor) -> None:
        self.trace = trace
        self.capacitor = capacitor
        self.clock_s = 0.0
        self.charge_time_s = 0.0
        self.failures = 0
        #: Optional (time, voltage) sampling; see :meth:`enable_logging`.
        self.voltage_log = None
        self._log_interval_s = 0.0
        self._last_log_t = -1.0

    @property
    def voltage(self) -> float:
        return self.capacitor.voltage

    @property
    def available_energy_j(self) -> float:
        return self.capacitor.usable_energy_j

    def draw(self, energy_j: float, duration_s: float) -> None:
        """Consume ``energy_j`` over ``duration_s`` of device activity.

        Harvested input during the activity window is credited first.
        Raises :class:`PowerFailureError` on brown-out (the energy already
        spent is genuinely gone — wasted work).
        """
        if energy_j < 0 or duration_s < 0:
            raise ConfigurationError("draw arguments must be non-negative")
        harvested = self.trace.energy(self.clock_s, duration_s) * self.efficiency
        self.clock_s += duration_s
        self.capacitor.charge(harvested)
        ok = self.capacitor.draw(energy_j)
        self._log_sample()
        if not ok:
            self.failures += 1
            raise PowerFailureError(
                f"brown-out at t={self.clock_s * 1e3:.1f} ms "
                f"(failure #{self.failures})"
            )

    def recharge(self) -> float:
        """Advance time until the capacitor reaches ``v_on``.

        Returns the charging duration.  Raises
        :class:`~repro.errors.InferenceAborted` if the trace cannot deliver
        the turn-on energy within the timeout (dead supply).
        """
        waited = 0.0
        cap = self.capacitor
        while cap.voltage < cap.v_on:
            if waited >= self.charge_timeout_s:
                raise InferenceAborted(
                    self.failures,
                    f"supply delivered too little energy in "
                    f"{self.charge_timeout_s} s to reach v_on",
                )
            harvested = (
                self.trace.energy(self.clock_s, self.charge_step_s) * self.efficiency
            )
            cap.charge(harvested)
            self.clock_s += self.charge_step_s
            waited += self.charge_step_s
            self._log_sample()
        self.charge_time_s += waited
        return waited

    # -- voltage logging ------------------------------------------------------

    def enable_logging(self, interval_s: float = 1e-3) -> None:
        """Start recording ``(time, voltage)`` samples at ``interval_s``,
        at most ``MAX_LOG_SAMPLES`` of them."""
        if interval_s <= 0:
            raise ConfigurationError("interval must be positive")
        self.voltage_log = []
        self._log_interval_s = interval_s
        self._last_log_t = -1.0
        self._log_sample()

    def _log_sample(self) -> None:
        if self.voltage_log is None:
            return
        if (
            self.clock_s - self._last_log_t >= self._log_interval_s
            and len(self.voltage_log) < self.MAX_LOG_SAMPLES
        ):
            self.voltage_log.append((self.clock_s, self.capacitor.voltage))
            self._last_log_t = self.clock_s

    def reset(self) -> None:
        """Fresh run: full capacitor, zeroed clocks and counters."""
        self.capacitor.reset()
        self.clock_s = 0.0
        self.charge_time_s = 0.0
        self.failures = 0
