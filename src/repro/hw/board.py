"""The simulated MSP430FR5994 device.

A :class:`Device` owns the memories, an :class:`~repro.hw.energymeter.
EnergyMeter`, and optionally an :class:`~repro.power.harvester.
EnergyHarvester` supply.  It executes :class:`~repro.sim.atoms.Atom`s:
cycles become time (at 16 MHz), time becomes core energy (via the active
component's power draw), and memory traffic adds per-word access energy.
With a supply attached, every action draws from the capacitor and can
raise :class:`~repro.errors.PowerFailureError` mid-program.

The cost model lives in the module-level draw builders
(:func:`execute_draw`, :func:`commit_draw`, :func:`restore_draw`), each a
pure function returning a draw's meter bookings and duration, and in
:func:`booking_total`, the energy a draw takes.  ``Device`` and the fast
engine both build their draws with them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import PowerFailureError
from repro.hw import constants as C
from repro.hw.energymeter import EnergyMeter
from repro.power.harvester import EnergyHarvester

if TYPE_CHECKING:  # keep hw free of a runtime import of repro.sim
    from repro.sim.atoms import Atom

_COMPONENT_POWER_W = {
    "cpu": C.CPU_ACTIVE_W,
    "lea": C.LEA_ACTIVE_W,
    "dma": C.DMA_ACTIVE_W,
}

#: ``(component, time_s, energy_j, purpose)`` meter bookings of one draw.
Bookings = List[Tuple[str, float, float, str]]


# -- the cost model ------------------------------------------------------------
#
# Pure functions of their arguments.  ``Device`` meters and draws what they
# return; the fast engine (``repro.sim.fastsim``) compiles its replay tables
# from the very same calls, which is what keeps the two engines bit-equal.


def atom_cost(atom: "Atom", fraction: float = 1.0) -> Tuple[float, float]:
    """``(time_s, energy_j)`` of executing ``fraction`` of ``atom``."""
    time_s = atom.cycles * fraction * C.EFFECTIVE_CYCLE_S
    core_j = _COMPONENT_POWER_W[atom.component] * time_s
    mem_j = fraction * (
        atom.fram_reads * C.FRAM_READ_J
        + atom.fram_writes * C.FRAM_WRITE_J
        + atom.sram_accesses * C.SRAM_ACCESS_J
    )
    return time_s, core_j + mem_j


def _commit_time_s(words: int) -> float:
    return (C.COMMIT_BASE_CYCLES + words * C.COMMIT_CYCLES_PER_WORD) * C.CYCLE_S


def commit_cost(words: int) -> Tuple[float, float]:
    """``(time_s, energy_j)`` of a progress commit of ``words`` words.

    Commits are genuine word writes (loop index / state bits), so they
    use raw cycle time and raw FRAM energy, not the system-overhead-
    scaled values that calibrate the inference kernels.
    """
    time_s = _commit_time_s(words)
    return time_s, C.CPU_ACTIVE_W * time_s + words * C.FRAM_WRITE_RAW_J


def execute_draw(atom: "Atom", fraction: float = 1.0) -> Tuple[Bookings, float]:
    """``(bookings, time_s)`` of executing ``fraction`` of ``atom``: the
    core booking, then FRAM and SRAM bookings when nonzero."""
    time_s, energy_j = atom_cost(atom, fraction)
    fram_j = fraction * (
        atom.fram_reads * C.FRAM_READ_J + atom.fram_writes * C.FRAM_WRITE_J
    )
    sram_j = fraction * atom.sram_accesses * C.SRAM_ACCESS_J
    bookings = [(atom.component, time_s, energy_j - fram_j - sram_j, atom.purpose)]
    if fram_j:
        bookings.append(("fram", 0.0, fram_j, atom.purpose))
    if sram_j:
        bookings.append(("sram", 0.0, sram_j, atom.purpose))
    return bookings, time_s


def commit_draw(words: int, count: int = 1) -> Tuple[Bookings, float]:
    """``(bookings, time_s)`` of ``count`` successive ``words``-word
    commits booked together (``count=1`` is one commit: ``x * 1 == x``)."""
    time_s, energy_j = commit_cost(words)
    fram_j = words * C.FRAM_WRITE_RAW_J
    return [
        ("cpu", time_s * count, (energy_j - fram_j) * count, "checkpoint"),
        ("fram", 0.0, fram_j * count, "checkpoint"),
    ], time_s * count


def restore_draw(words: int) -> Tuple[Bookings, float]:
    """``(bookings, time_s)`` of reading ``words`` of progress/snapshot
    state back after a reboot."""
    time_s = _commit_time_s(words)
    return [
        ("cpu", time_s, C.CPU_ACTIVE_W * time_s, "checkpoint"),
        ("fram", 0.0, words * C.FRAM_READ_RAW_J, "checkpoint"),
    ], time_s


def booking_total(bookings: Bookings) -> float:
    """The energy a draw takes: its booking energies added left to right.

    Not ``sum()``: from CPython 3.12 it adds floats with compensation,
    so simulated results would depend on the interpreter version.
    """
    total = 0.0
    for booking in bookings:
        total = total + booking[2]
    return total


class Device:
    """Cycle-approximate MSP430FR5994 + LEA."""

    def __init__(
        self,
        *,
        supply: Optional[EnergyHarvester] = None,
    ) -> None:
        self.supply = supply
        self.meter = EnergyMeter()
        self.reboots = 0

    # The cost model, as methods for callers holding a device.
    atom_cost = staticmethod(atom_cost)
    commit_cost = staticmethod(commit_cost)

    # -- execution -------------------------------------------------------------

    def _draw_and_record(self, bookings, time_s: float) -> None:
        """Draw the total of ``bookings`` from the supply and meter it.

        ``bookings`` is a list of ``(component, time_s, energy_j, purpose)``.
        On a brown-out only the energy that was actually available gets
        metered (the action was cut short), scaled proportionally across
        the bookings, and the failure propagates.
        """
        total_j = booking_total(bookings)
        scale = 1.0
        failure = None
        if self.supply is not None:
            avail = self.supply.available_energy_j
            harvested = (
                self.supply.trace.energy(self.supply.clock_s, time_s)
                * self.supply.efficiency
            )
            try:
                self.supply.draw(total_j, time_s)
            except PowerFailureError as exc:
                failure = exc
                spent = min(total_j, avail + harvested)
                scale = spent / total_j if total_j > 0 else 0.0
        for component, t, e, purpose in bookings:
            self.meter.record(
                component, time_s=t * scale, energy_j=e * scale, purpose=purpose
            )
        if failure is not None:
            raise failure

    def execute(self, atom: "Atom", fraction: float = 1.0) -> None:
        """Run (a fraction of) an atom: meter it and draw from the supply."""
        self._draw_and_record(*execute_draw(atom, fraction))

    def checkpoint(self, words: int) -> None:
        """Write ``words`` of progress/checkpoint state to FRAM."""
        self._draw_and_record(*commit_draw(words))

    def checkpoint_bulk(self, words: int, count: int) -> None:
        """``count`` successive commits of ``words`` each, booked together
        (used for per-iteration loop-index logging)."""
        self._draw_and_record(*commit_draw(words, count))

    def restore(self, words: int) -> None:
        """Read ``words`` of progress/snapshot state back after a reboot."""
        self._draw_and_record(*restore_draw(words))

    def on_power_failure(self) -> None:
        """Brown-out: count the reboot."""
        self.reboots += 1


def msp430fr5994(supply: Optional[EnergyHarvester] = None) -> Device:
    """The evaluation board, on ``supply`` (``None``: continuous power)."""
    return Device(supply=supply)
