"""The intermittent-execution machine.

Executes a runtime's atom program against a :class:`~repro.hw.board.
Device`.  Under continuous power this is a single pass that still pays
each runtime's progress-logging overhead.  Under a harvester supply the
machine implements the reboot loop:

1. execute atoms, drawing energy until a brown-out interrupts;
2. clear volatile state, recharge to the turn-on voltage;
3. resume at the last *durable* position — which depends on the runtime's
   commit semantics (see :mod:`repro.sim.atoms`) — and pay the restore
   cost;
4. declare DNF when the durable position stops advancing across
   ``stall_limit`` consecutive power cycles (this is how BASE and plain
   ACE earn their "X" in Figure 7(b)).

FLEX's voltage-monitor-driven on-demand checkpointing is implemented
here: when the monitor warns and uncommitted volatile progress exists,
the machine snapshots the live intermediates to FRAM, making the current
position durable at a small cost (Figure 6, right).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, InferenceAborted, PowerFailureError
from repro.hw import constants as C
from repro.obs import metrics as _obs
from repro.power.monitor import VoltageMonitor

if TYPE_CHECKING:  # avoid a circular import (hw.board uses sim.atoms)
    from repro.hw.board import Device
from repro.sim.atoms import Atom, total_cycles, validate_program
from repro.sim.results import RunResult
from repro.sim.runtime import InferenceRuntime


@dataclass
class _Cursor:
    atom: int = 0
    iteration: int = 0

    def key(self) -> Tuple[int, int]:
        return (self.atom, self.iteration)


class IntermittentMachine:
    """Drives one runtime on one device (continuous or harvested power)."""

    def __init__(
        self,
        device: "Device",
        runtime: InferenceRuntime,
        *,
        monitor: Optional[VoltageMonitor] = None,
        stall_limit: int = 6,
        max_reboots: int = 10000,
    ) -> None:
        if stall_limit < 1 or max_reboots < 1:
            raise ConfigurationError("stall_limit and max_reboots must be >= 1")
        if runtime.snapshot_on_warning and device.supply is not None and monitor is None:
            raise ConfigurationError(
                f"{runtime.name} needs a VoltageMonitor for on-demand "
                "checkpointing under harvested power"
            )
        self.device = device
        self.runtime = runtime
        self.monitor = monitor
        self.stall_limit = stall_limit
        self.max_reboots = max_reboots
        # (atoms, total_cycles) of the last validated program: the
        # runtimes memoize build_atoms(), so a session streaming samples
        # through one machine validates and sums the program once instead
        # of per inference (hot-loop hoist; pure bookkeeping, the cached
        # float is the exact value the per-run sum produced).  The list
        # itself is held — an identity compare on a freed id could alias
        # a different program.
        self._validated: Optional[Tuple[list, float]] = None

    # -- public API -----------------------------------------------------------

    def warm(self) -> None:
        """Validate the atom program ahead of the first run.

        Engine-interface twin of :meth:`FastMachine.warm`: the per-run
        memoized validation/total-cycles pass happens now, so a session's
        first sample pays the same cost as the rest.
        """
        atoms = self.runtime.build_atoms()
        if self._validated is None or self._validated[0] is not atoms:
            validate_program(atoms)
            self._validated = (atoms, total_cycles(atoms))

    def run_deferred(self, x: np.ndarray, *, defer_logits: bool = True):
        """Engine-interface twin of :meth:`FastMachine.run_deferred`.

        The reference machine has no bulk-logits path, so this always
        computes logits inline and reports nothing pending.
        """
        return self.run(x), False

    def run(self, x: np.ndarray) -> RunResult:
        """Execute one inference on sample ``x`` and return statistics."""
        atoms = self.runtime.build_atoms()
        if self._validated is not None and self._validated[0] is atoms:
            program_cycles = self._validated[1]
        else:
            validate_program(atoms)
            program_cycles = total_cycles(atoms)
            self._validated = (atoms, program_cycles)
        device = self.device
        supply = device.supply
        meter_start = device.meter.snapshot()
        clock_start = supply.clock_s if supply is not None else 0.0
        charge_start = supply.charge_time_s if supply is not None else 0.0
        commit_on = self.runtime.commit_enabled

        # Observability baselines: event counters are published as
        # *deltas* at run end (never from inside the storm loop), so the
        # simulation arithmetic and operation order are untouched.
        _rec = _obs.ENABLED
        if _rec:
            _failures0 = supply.failures if supply is not None else 0
            _warnings0 = self.monitor.warnings if self.monitor is not None else 0
        n_restores = 0

        durable = _Cursor()
        cursor = _Cursor()
        executed_cycles = 0.0
        reboots = 0
        stall = 0
        last_durable = (-1, -1)
        dnf_reason = ""
        completed = False

        while True:
            try:
                executed_cycles += self._run_from(
                    atoms, cursor, durable, commit_on
                )
                completed = True
                break
            except PowerFailureError:
                reboots += 1
                device.on_power_failure()
                if reboots >= self.max_reboots:
                    dnf_reason = f"exceeded max_reboots={self.max_reboots}"
                    break
                if durable.key() == last_durable:
                    stall += 1
                    if stall >= self.stall_limit:
                        dnf_reason = (
                            f"no durable progress across {stall} power cycles"
                        )
                        break
                else:
                    stall = 0
                last_durable = durable.key()
                try:
                    supply.recharge()
                except InferenceAborted as exc:
                    dnf_reason = str(exc)
                    break
                # Restore: read progress record (and snapshot, if any) back.
                restore = self.runtime.restore_words()
                if restore:
                    try:
                        device.restore(restore + self._volatile_at(atoms, durable))
                    except PowerFailureError:
                        continue  # pathological: failed during restore
                    n_restores += 1
                cursor = _Cursor(durable.atom, durable.iteration)

        diff = device.meter.diff(meter_start)
        logits = None
        pred = None
        if completed:
            logits = self.runtime.compute_logits(x)
            pred = int(np.argmax(logits))
        active = diff.total_time_s
        charge = (supply.charge_time_s - charge_start) if supply is not None else 0.0
        wall = (supply.clock_s - clock_start) if supply is not None else active
        if _rec:
            _obs.count("machine.runs")
            _obs.count("machine.completed" if completed else "machine.dnf")
            if reboots:
                _obs.count("machine.reboots", reboots)
            if n_restores:
                _obs.count("machine.restores", n_restores)
            if supply is not None and supply.failures != _failures0:
                _obs.count("machine.brownouts", supply.failures - _failures0)
            if (self.monitor is not None
                    and self.monitor.warnings != _warnings0):
                _obs.count("machine.checkpoints",
                           self.monitor.warnings - _warnings0)
        return RunResult(
            runtime=self.runtime.name,
            completed=completed,
            logits=logits,
            predicted_class=pred,
            wall_time_s=wall,
            active_time_s=active,
            charge_time_s=charge,
            energy_j=diff.total_energy_j,
            energy_by_component=dict(diff.energy_j),
            checkpoint_energy_j=diff.purpose_of("checkpoint"),
            reboots=reboots,
            executed_cycles=executed_cycles,
            program_cycles=program_cycles,
            dnf_reason=dnf_reason,
        )

    # -- internals --------------------------------------------------------------

    def _run_from(self, atoms, cursor: _Cursor, durable: _Cursor, commit_on: bool) -> float:
        """Execute atoms from ``cursor``; returns cycles executed.

        Mutates ``cursor`` (position) and ``durable`` (resume point).
        Raises :class:`PowerFailureError` on brown-out.
        """
        device = self.device
        supply = device.supply
        executed = 0.0
        while cursor.atom < len(atoms):
            atom = atoms[cursor.atom]
            # FLEX on-demand snapshot before risky work.
            if (
                self.runtime.snapshot_on_warning
                and supply is not None
                and durable.key() < cursor.key()
                and self.monitor is not None
                and self.monitor.is_low()
            ):
                words = self._volatile_at(atoms, cursor) + C.FLEX_COMMIT_WORDS
                device.checkpoint(words)
                durable.atom, durable.iteration = cursor.atom, cursor.iteration

            if atom.divisible:
                executed += self._run_divisible(atom, cursor, durable, commit_on)
            else:
                device.execute(atom)
                executed += atom.cycles
                cursor.atom += 1
                cursor.iteration = 0
                if commit_on and atom.commit:
                    device.checkpoint(atom.commit_words)
                    if atom.volatile_words == 0:
                        durable.atom, durable.iteration = cursor.atom, 0
        return executed

    def _run_divisible(self, atom: Atom, cursor: _Cursor, durable: _Cursor,
                       commit_on: bool) -> float:
        """Execute a loop atom in energy-bounded chunks."""
        device = self.device
        supply = device.supply
        per_iter = 1.0 / atom.iterations
        _, e_iter = device.atom_cost(atom, per_iter)
        if commit_on and atom.commit:
            _, e_commit = device.commit_cost(atom.commit_words)
            e_iter += e_commit
        executed = 0.0
        while cursor.iteration < atom.iterations:
            remaining = atom.iterations - cursor.iteration
            if supply is None:
                chunk = remaining
            else:
                chunk = int(supply.available_energy_j / max(e_iter, 1e-18))
                chunk = max(1, min(chunk, remaining))
            device.execute(atom, chunk * per_iter)
            executed += atom.cycles * chunk * per_iter
            if commit_on and atom.commit:
                device.checkpoint_bulk(atom.commit_words, chunk)
            cursor.iteration += chunk
            if commit_on and atom.commit and atom.volatile_words == 0:
                durable.atom = cursor.atom
                durable.iteration = cursor.iteration
        cursor.atom += 1
        cursor.iteration = 0
        if commit_on and atom.commit and atom.volatile_words == 0:
            durable.atom, durable.iteration = cursor.atom, 0
        return executed

    @staticmethod
    def _volatile_at(atoms, cursor: _Cursor) -> int:
        """Volatile words live at ``cursor`` (state after the previous atom)."""
        if cursor.atom == 0 or cursor.atom > len(atoms):
            return 0
        if cursor.iteration > 0:
            return 0  # mid-loop state is index-resumable by construction
        return atoms[cursor.atom - 1].volatile_words
