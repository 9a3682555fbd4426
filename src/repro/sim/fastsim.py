"""Vectorized fast-path simulation engine, bit-identical to the reference.

:class:`~repro.sim.machine.IntermittentMachine` walks a runtime's atom
program one Python-level step at a time: every atom pays a stack of calls
(``Device.execute`` -> ``atom_cost`` -> ``_draw_and_record`` ->
``EnergyMeter.record`` x3 -> ``EnergyHarvester.draw`` -> capacitor math),
so fleet throughput is bounded by interpreter overhead rather than by the
hardware.  The cost model itself is static — per-atom cycle/energy costs
are fixed once the program is compiled — which makes the walk replayable
from precomputed tables.  :class:`FastMachine` exploits that in two ways:

* **Continuous power** (``device.supply is None``): a run is a pure
  straight-line replay.  At compile time the exact sequence of meter
  bookings the reference would make is emitted into per-ledger-key numpy
  arrays; at run time each key's end value is ``np.cumsum`` over
  ``[start, t1, t2, ...]``.  ``cumsum`` is a strictly sequential
  left-to-right accumulation, i.e. the *same* IEEE-754 additions in the
  same order as the reference's ``dict[key] += term`` loop — so every
  RunResult float is bit-identical, not merely close.

* **Harvested power**: brown-out points *cannot* be located analytically
  without breaking bit-equality.  ``Capacitor.charge``/``draw`` round-trip
  the voltage through ``sqrt(v**2 +/- 2E/C)`` on every draw; each trip
  rounds, so skipping "certainly safe" atoms (e.g. via
  :func:`analytic_brownout_index`) leaves the capacitor a few ulps away
  from the reference trajectory and can flip a borderline brown-out
  comparison.  The fast path therefore *replays* the exact scalar
  recurrence, but from precompiled per-atom cost tables with the supply,
  meter, and monitor state inlined into local variables — the same
  arithmetic with none of the per-atom call/dispatch overhead.
  ``_run_harvested`` batches everything around that recurrence; it is
  the only harvested replay, and its oracle is the reference machine.

The compiled cumulative-energy table still powers
:func:`analytic_brownout_index`, a ``searchsorted``-based estimator of
the brown-out atom for planners and benchmarks; it is harvest-blind and
rounding-blind by construction (accurate to about one atom), which is
exactly why it is an estimator and not the execution path — see
DESIGN.md's fast-engine section and the differential conformance suite
(``tests/test_fastsim_conformance.py``) for the equivalence contract.

``FastMachine`` silently delegates to the reference machine for
configurations it cannot replay exactly (subclassed device/supply/
monitor/meter, or harvester voltage logging enabled), so ``engine="fast"``
is always safe to request.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.concurrency import ForkSafeLock
from repro.errors import ConfigurationError
from repro.hw import constants as C
from repro.hw.energymeter import EnergyMeter
from repro.power.capacitor import Capacitor
from repro.power.empirical import EmpiricalTrace
from repro.power.harvester import EnergyHarvester
from repro.power.monitor import VoltageMonitor
from repro.power.traces import (
    ConstantTrace,
    SolarTrace,
    SquareWaveTrace,
    StochasticRFTrace,
)
from repro.obs import metrics as _obs
from repro.obs import spans as _spans
from repro.sim.atoms import total_cycles, validate_program
from repro.sim.machine import IntermittentMachine
from repro.sim.results import RunResult
from repro.sim.runtime import InferenceRuntime

if TYPE_CHECKING:  # avoid a circular import (hw.board uses sim.atoms)
    from repro.hw.board import Device

#: ``repro.hw.board`` power table, bound lazily for the same reason.
_POWER_W: Dict[str, float] = {}

#: ``repro.hw.board.Device``, bound lazily for the same reason (used by
#: the per-run fallback check — a module-level cache keeps the import
#: lookup out of the session hot loop).
_DEVICE_CLASS = None


def _device_class():
    global _DEVICE_CLASS
    if _DEVICE_CLASS is None:
        from repro.hw.board import Device

        _DEVICE_CLASS = Device
    return _DEVICE_CLASS


def _component_power() -> Dict[str, float]:
    if not _POWER_W:
        from repro.hw.board import _COMPONENT_POWER_W

        _POWER_W.update(_COMPONENT_POWER_W)
    return _POWER_W

#: Engine names understood by :func:`make_machine` and the session/fleet/CLI
#: ``engine=`` flags.
ENGINES = ("reference", "fast")


# ---------------------------------------------------------------------------
# Program compilation
# ---------------------------------------------------------------------------


@dataclass
class CompiledProgram:
    """Precompiled cost tables for one runtime's atom program.

    Every numeric entry is computed with the *same expressions, in the
    same association order*, as the reference ``Device`` cost methods —
    that is the whole bit-equality argument, so resist "simplifying" the
    arithmetic here.  The ``_*_series`` arrays keep index 0 free as a
    scratch head slot for the running meter value (mutated per run; the
    tables are not safe for concurrent runs in threads, matching the rest
    of the simulator).
    """

    atoms: List  # the runtime's atom list, as compiled
    commit_on: bool
    snapshot_on_warning: bool
    n_atoms: int
    program_cycles: float

    # -- continuous-path replay tables --------------------------------------
    cont_executed_cycles: float = 0.0
    comp_keys: List[str] = field(default_factory=list)
    purpose_keys: List[str] = field(default_factory=list)
    _energy_series: Dict[str, np.ndarray] = field(default_factory=dict)
    _time_series: Dict[str, np.ndarray] = field(default_factory=dict)
    _purpose_series: Dict[str, np.ndarray] = field(default_factory=dict)

    # -- harvested-path per-atom tables (plain lists: fastest to index from
    #    the scalar replay loop) --------------------------------------------
    cycles: List[float] = field(default_factory=list)
    component: List[str] = field(default_factory=list)
    purpose: List[str] = field(default_factory=list)
    power_w: List[float] = field(default_factory=list)
    divisible: List[bool] = field(default_factory=list)
    iterations: List[int] = field(default_factory=list)
    per_iter: List[float] = field(default_factory=list)
    e_iter: List[float] = field(default_factory=list)
    mem_unit: List[float] = field(default_factory=list)
    fram_unit: List[float] = field(default_factory=list)
    sram_count: List[float] = field(default_factory=list)
    volatile_words: List[int] = field(default_factory=list)
    volatile_prev: List[int] = field(default_factory=list)  # len n_atoms + 1
    exec_bookings: List[list] = field(default_factory=list)
    exec_time: List[float] = field(default_factory=list)
    exec_total: List[float] = field(default_factory=list)
    #: Per-series cumsum output buffers for the continuous replay (the
    #: hot loop reuses them instead of allocating per run per key).
    _cumsum_scratch: Dict[str, np.ndarray] = field(default_factory=dict)
    commit_flag: List[bool] = field(default_factory=list)
    commit_time: List[float] = field(default_factory=list)
    commit_cpu: List[float] = field(default_factory=list)
    commit_fram: List[float] = field(default_factory=list)
    commit_total: List[float] = field(default_factory=list)
    commit_bookings: List[Optional[list]] = field(default_factory=list)

    #: Cumulative full-execution draw energy; ``cum_draw_energy[i]`` is the
    #: supply draw of completing atoms ``[0, i)`` (commit draws included).
    cum_draw_energy: np.ndarray = field(default_factory=lambda: np.zeros(1))

    # -- harvested segment-replay event tables ------------------------------
    # One *event* per supply draw of a full pass over the non-divisible
    # atoms: an exec draw per atom plus a commit draw when committing.
    # Divisible atoms are span breakers (their chunk sizes depend on the
    # live capacitor voltage) and own no events.  The replay batches the
    # per-event harvest windows through ``trace.energy_batch`` and keeps
    # only the voltage recurrence scalar — see ``_run_harvested``.
    n_events: int = 0
    ev_dt: np.ndarray = field(default_factory=lambda: np.zeros(0))
    ev_total: np.ndarray = field(default_factory=lambda: np.zeros(0))
    ev_cycles: np.ndarray = field(default_factory=lambda: np.zeros(0))
    ev_dt_l: List[float] = field(default_factory=list)
    ev_total_l: List[float] = field(default_factory=list)
    ev_atom: List[int] = field(default_factory=list)
    ev_is_exec: List[bool] = field(default_factory=list)
    #: Durable atom index this event advances the cursor to (commit events
    #: of atoms without volatile state), or -1.
    ev_durable_to: List[int] = field(default_factory=list)
    #: Snapshot-candidacy test operand: the atom index for exec events, a
    #: large negative sentinel for commit events.  The reference consults
    #: the voltage monitor only at the top of an *atom* with un-durable
    #: progress, so ``durable_atom < ev_snap_atom[j]`` is exactly "event
    #: ``j`` may snapshot" — the replay batches through every other event
    #: no matter how low the voltage sits.
    ev_snap_atom: List[int] = field(default_factory=list)
    #: Next event index ``>= j`` that is a snapshot candidate under
    #: straight-line durable tracking from the program start (len
    #: ``n_events + 2``, sentinel ``n_events``), plus the same
    #: candidacy as a boolean mask.  These are *batch-sizing hints*,
    #: not correctness gates: the replay's live ``durable_atom`` test
    #: still decides every event; the hints only keep a mid-batch
    #: candidate from invalidating a long precomputed clock tail.
    ev_next_snap: List[int] = field(default_factory=list)
    ev_snap_cand: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    ev_bookings: List[list] = field(default_factory=list)
    #: Flat concatenation of every event's booking tuples, in replay order.
    book_stream: List[Tuple] = field(default_factory=list)
    #: Booking-stream offset of each event (len ``n_events + 1``): event
    #: ``j`` books stream entries ``[ev_book_start[j], ev_book_start[j+1])``.
    ev_book_start: List[int] = field(default_factory=list)
    #: Event offset where atom ``a``'s events start (len ``n_atoms + 1``;
    #: defined for divisible atoms too — they contribute zero events).
    atom_event_lo: List[int] = field(default_factory=list)
    #: First divisible atom index at or after ``a`` (len ``n_atoms + 1``);
    #: the span starting at a non-divisible atom runs to this boundary.
    span_end_atom: List[int] = field(default_factory=list)
    #: Per meter key: a per-event prefix count (``cnt[j]`` = number of this
    #: key's bookings before event ``j``; len ``n_events + 1``), the sorted
    #: booking-stream positions, the energy/time terms booked there, and
    #: whether every time term is zero (fram/sram — their flush can skip
    #: the time cumsum because ``t + 0.0 == t`` on the non-negative
    #: accumulator).  The span replay cumsums the sub-slice a flushed
    #: event range covers (the reference's per-key add sequence).
    #: item: (key, cnt, pos, e_arr, t_arr, t_zero, e_list, t_list) — the
    #: list mirrors serve the short-range scalar-add path in ``flush``.
    key_items: List[Tuple] = field(default_factory=list)
    purpose_items: List[Tuple] = field(default_factory=list)  # (key, cnt, pos, e_arr, e_list)
    #: Per-capacitance discharge tables: ``(2.0 * ev_total) / cap_f``
    #: elementwise, exactly the ``Capacitor.draw`` subtrahend per event.
    _draw_tables: Dict[float, List[float]] = field(default_factory=dict)
    #: Cumulative variant (len ``n_events + 1``, head 0.0): total
    #: squared-voltage drain of events ``< j`` assuming zero harvest — a
    #: lower bound on the live trajectory, used to size batches and to
    #: bound the span walk's provably trigger-free prefix.
    _draw_cums: Dict[float, np.ndarray] = field(default_factory=dict)
    #: Largest single-event entry of :meth:`draw_table` per capacitance.
    _draw_maxes: Dict[float, float] = field(default_factory=dict)
    #: Python-list mirrors of the continuous per-key term series (index 0
    #: head slot excluded): short series replay faster through a scalar
    #: accumulation loop than through a ``np.cumsum`` call (same adds,
    #: same bits — the loop *is* the sequential definition of cumsum).
    _terms_l: Dict[str, List[float]] = field(default_factory=dict)
    #: Per-atom FLEX checkpoint draw ``(bookings, time_s, total_j)`` for a
    #: snapshot at the top of atom ``a`` (``volatile_prev[a] +
    #: FLEX_COMMIT_WORDS`` words) — the exact tuple the reference builds on
    #: every warning, hoisted out of the storm loop.  Lazy-built.
    _ck_draws: List[Tuple] = field(default_factory=list)

    def ck_draws(self) -> List[Tuple]:
        """Checkpoint draw arguments per atom (see ``_ck_draws``)."""
        if not self._ck_draws and self.n_atoms:
            for a in range(self.n_atoms):
                ct, ce, cf = _commit_cost(
                    self.volatile_prev[a] + C.FLEX_COMMIT_WORDS)
                ck_cpu = ce - cf
                self._ck_draws.append((
                    [("cpu", ct, ck_cpu, "checkpoint"),
                     ("fram", 0.0, cf, "checkpoint")],
                    ct, ck_cpu + cf))
        return self._ck_draws

    def draw_table(self, cap_f: float) -> List[float]:
        """Discharge term per event for a ``cap_f``-farad capacitor."""
        table = self._draw_tables.get(cap_f)
        if table is None:
            table = ((2.0 * self.ev_total) / cap_f).tolist()
            self._draw_tables[cap_f] = table
        return table

    def draw_cum(self, cap_f: float) -> np.ndarray:
        """Prefix sums of :meth:`draw_table` (len ``n_events + 1``)."""
        cum = self._draw_cums.get(cap_f)
        if cum is None:
            cum = np.zeros(self.n_events + 1, dtype=np.float64)
            np.cumsum((2.0 * self.ev_total) / cap_f, out=cum[1:])
            self._draw_cums[cap_f] = cum
        return cum

    def draw_max(self, cap_f: float) -> float:
        """Largest single-event discharge term (0.0 with no events)."""
        m = self._draw_maxes.get(cap_f)
        if m is None:
            m = (
                float((2.0 * self.ev_total).max() / cap_f)
                if self.n_events else 0.0
            )
            self._draw_maxes[cap_f] = m
        return m


def _commit_cost(words: int) -> Tuple[float, float, float]:
    """``(time_s, energy_j, fram_j)`` of one progress commit — the exact
    expressions of :meth:`Device.commit_cost` plus its caller's FRAM split."""
    cycles = C.COMMIT_BASE_CYCLES + words * C.COMMIT_CYCLES_PER_WORD
    time_s = cycles * C.CYCLE_S
    energy = C.CPU_ACTIVE_W * time_s + words * C.FRAM_WRITE_RAW_J
    fram_j = words * C.FRAM_WRITE_RAW_J
    return time_s, energy, fram_j


def _execute_costs(atom, fraction: float):
    """Replicate ``Device.atom_cost`` + ``Device.execute`` cost splits."""
    time_s = atom.cycles * fraction * C.EFFECTIVE_CYCLE_S
    core_j = _component_power()[atom.component] * time_s
    mem_j = fraction * (
        atom.fram_reads * C.FRAM_READ_J
        + atom.fram_writes * C.FRAM_WRITE_J
        + atom.sram_accesses * C.SRAM_ACCESS_J
    )
    energy_j = core_j + mem_j
    fram_j = fraction * (
        atom.fram_reads * C.FRAM_READ_J + atom.fram_writes * C.FRAM_WRITE_J
    )
    sram_j = fraction * atom.sram_accesses * C.SRAM_ACCESS_J
    core_booked = energy_j - fram_j - sram_j
    return time_s, core_booked, fram_j, sram_j


def _exec_booking_list(atom, fraction: float):
    """Booking tuples + ``_draw_and_record`` total for one full execute."""
    time_s, core_booked, fram_j, sram_j = _execute_costs(atom, fraction)
    bookings = [(atom.component, time_s, core_booked, atom.purpose)]
    total = core_booked  # sum() over booking energies, left to right
    if fram_j:
        bookings.append(("fram", 0.0, fram_j, atom.purpose))
        total = total + fram_j
    if sram_j:
        bookings.append(("sram", 0.0, sram_j, atom.purpose))
        total = total + sram_j
    return bookings, time_s, total


def compile_program(runtime: InferenceRuntime) -> CompiledProgram:
    """Compile ``runtime``'s atom program into replay tables.

    Atom programs are assumed to be a pure function of the runtime
    instance (every runtime in this repo memoizes ``build_atoms``); the
    reference machine re-requests the program per run, the fast machine
    compiles it once.
    """
    atoms = runtime.build_atoms()
    validate_program(atoms)
    commit_on = runtime.commit_enabled
    p = CompiledProgram(
        atoms=atoms,
        commit_on=commit_on,
        snapshot_on_warning=runtime.snapshot_on_warning,
        n_atoms=len(atoms),
        program_cycles=total_cycles(atoms),
    )

    # --- continuous-path event stream (the exact reference booking order) --
    events: List[Tuple[str, float, float, str]] = []  # (key, time, energy, purpose)
    exec_sub = 0.0
    cum_draw = [0.0]
    for atom in atoms:
        committing = commit_on and atom.commit

        # Per-atom tables for the harvested replay loop.
        p.cycles.append(atom.cycles)
        p.component.append(atom.component)
        p.purpose.append(atom.purpose)
        p.power_w.append(_component_power()[atom.component])
        p.divisible.append(atom.divisible)
        p.iterations.append(atom.iterations)
        p.volatile_words.append(atom.volatile_words)
        p.commit_flag.append(committing)
        p.mem_unit.append(
            atom.fram_reads * C.FRAM_READ_J
            + atom.fram_writes * C.FRAM_WRITE_J
            + atom.sram_accesses * C.SRAM_ACCESS_J
        )
        p.fram_unit.append(
            atom.fram_reads * C.FRAM_READ_J + atom.fram_writes * C.FRAM_WRITE_J
        )
        p.sram_count.append(float(atom.sram_accesses))
        if committing:
            ct, ce, cf = _commit_cost(atom.commit_words)
            ck_cpu = ce - cf
            p.commit_time.append(ct)
            p.commit_cpu.append(ck_cpu)
            p.commit_fram.append(cf)
            p.commit_total.append(ck_cpu + cf)
            p.commit_bookings.append(
                [("cpu", ct, ck_cpu, "checkpoint"), ("fram", 0.0, cf, "checkpoint")]
            )
        else:
            p.commit_time.append(0.0)
            p.commit_cpu.append(0.0)
            p.commit_fram.append(0.0)
            p.commit_total.append(0.0)
            p.commit_bookings.append(None)

        if atom.divisible:
            per_iter = 1.0 / atom.iterations
            time_i = atom.cycles * per_iter * C.EFFECTIVE_CYCLE_S
            e_iter = _component_power()[atom.component] * time_i + per_iter * (
                atom.fram_reads * C.FRAM_READ_J
                + atom.fram_writes * C.FRAM_WRITE_J
                + atom.sram_accesses * C.SRAM_ACCESS_J
            )
            if committing:
                _, ce, _ = _commit_cost(atom.commit_words)
                e_iter += ce
            p.per_iter.append(per_iter)
            p.e_iter.append(e_iter)
            fraction = atom.iterations * per_iter  # chunk == all iterations
        else:
            p.per_iter.append(1.0)
            p.e_iter.append(0.0)
            fraction = 1.0

        bookings, time_s, total = _exec_booking_list(atom, fraction)
        p.exec_bookings.append(bookings)
        p.exec_time.append(time_s)
        p.exec_total.append(total)

        # Continuous-path events: execute, then commit (per reference order).
        for key, t, e, purpose in bookings:
            events.append((key, t, e, purpose))
        atom_draw = total
        if atom.divisible:
            exec_sub += atom.cycles * atom.iterations * p.per_iter[-1]
            if committing:
                count = atom.iterations
                tt = p.commit_time[-1] * count
                ce_b = p.commit_cpu[-1] * count
                cf_b = p.commit_fram[-1] * count
                events.append(("cpu", tt, ce_b, "checkpoint"))
                events.append(("fram", 0.0, cf_b, "checkpoint"))
                atom_draw = atom_draw + (ce_b + cf_b)
        else:
            exec_sub += atom.cycles
            if committing:
                events.append(("cpu", p.commit_time[-1], p.commit_cpu[-1], "checkpoint"))
                events.append(("fram", 0.0, p.commit_fram[-1], "checkpoint"))
                atom_draw = atom_draw + p.commit_total[-1]
        cum_draw.append(cum_draw[-1] + atom_draw)
    p.cont_executed_cycles = 0.0 + exec_sub
    p.cum_draw_energy = np.asarray(cum_draw, dtype=np.float64)

    p.volatile_prev = [0] + [a.volatile_words for a in atoms]

    # --- group events into per-key series with a head slot -----------------
    energy_terms: Dict[str, List[float]] = {}
    time_terms: Dict[str, List[float]] = {}
    purpose_terms: Dict[str, List[float]] = {}
    for key, t, e, purpose in events:
        if key not in energy_terms:
            p.comp_keys.append(key)
            energy_terms[key] = []
            time_terms[key] = []
        energy_terms[key].append(e)
        time_terms[key].append(t)
        if purpose not in purpose_terms:
            p.purpose_keys.append(purpose)
            purpose_terms[purpose] = []
        purpose_terms[purpose].append(e)
    for key in p.comp_keys:
        e_arr = np.empty(len(energy_terms[key]) + 1, dtype=np.float64)
        e_arr[1:] = energy_terms[key]
        t_arr = np.empty(len(time_terms[key]) + 1, dtype=np.float64)
        t_arr[1:] = time_terms[key]
        p._energy_series[key] = e_arr
        p._time_series[key] = t_arr
    for key in p.purpose_keys:
        s_arr = np.empty(len(purpose_terms[key]) + 1, dtype=np.float64)
        s_arr[1:] = purpose_terms[key]
        p._purpose_series[key] = s_arr

    # --- harvested segment-replay event tables -----------------------------
    # One event per supply draw over the non-divisible atoms (the floats
    # are the *same objects* the scalar tables hold, so the comparison and
    # discharge arithmetic in the span replay is bit-for-bit the scalar
    # path's).  Divisible atoms contribute no events and delimit spans.
    ev_dt: List[float] = []
    ev_total: List[float] = []
    ev_cycles: List[float] = []
    book_stream: List[Tuple] = []
    p.ev_book_start.append(0)
    for i, atom in enumerate(atoms):
        p.atom_event_lo.append(len(ev_dt))
        if atom.divisible:
            continue
        ev_dt.append(p.exec_time[i])
        ev_total.append(p.exec_total[i])
        ev_cycles.append(p.cycles[i])
        p.ev_atom.append(i)
        p.ev_is_exec.append(True)
        p.ev_durable_to.append(-1)
        p.ev_bookings.append(p.exec_bookings[i])
        book_stream.extend(p.exec_bookings[i])
        p.ev_book_start.append(len(book_stream))
        if p.commit_flag[i]:
            ev_dt.append(p.commit_time[i])
            ev_total.append(p.commit_total[i])
            ev_cycles.append(0.0)
            p.ev_atom.append(i)
            p.ev_is_exec.append(False)
            p.ev_durable_to.append(i + 1 if atom.volatile_words == 0 else -1)
            p.ev_bookings.append(p.commit_bookings[i])
            book_stream.extend(p.commit_bookings[i])
            p.ev_book_start.append(len(book_stream))
    p.atom_event_lo.append(len(ev_dt))
    p.n_events = len(ev_dt)
    p.ev_dt = np.asarray(ev_dt, dtype=np.float64)
    p.ev_total = np.asarray(ev_total, dtype=np.float64)
    p.ev_cycles = np.asarray(ev_cycles, dtype=np.float64)
    p.ev_dt_l = ev_dt
    p.ev_total_l = ev_total
    p.ev_snap_atom = [
        a if is_exec else -(1 << 30)
        for a, is_exec in zip(p.ev_atom, p.ev_is_exec)
    ]
    # Straight-line candidate set: replay the durable cursor over the
    # events once (commits of volatile-free atoms advance it) and mark
    # the exec events it lags behind — the only places a snapshot can
    # fire when the program runs uninterrupted.
    cand = [False] * p.n_events
    dur = 0
    for j in range(p.n_events):
        if p.ev_is_exec[j] and dur < p.ev_atom[j]:
            cand[j] = True
        dto = p.ev_durable_to[j]
        if dto > dur:
            dur = dto
    p.ev_next_snap = [p.n_events] * (p.n_events + 2)
    nxt = p.n_events
    for j in range(p.n_events - 1, -1, -1):
        if cand[j]:
            nxt = j
        p.ev_next_snap[j] = nxt
    p.ev_snap_cand = np.asarray(cand, dtype=bool)
    p.book_stream = book_stream

    span_end = [0] * (p.n_atoms + 1)
    span_end[p.n_atoms] = p.n_atoms
    for i in range(p.n_atoms - 1, -1, -1):
        span_end[i] = i if atoms[i].divisible else span_end[i + 1]
    p.span_end_atom = span_end

    kpos: Dict[str, List[int]] = {}
    ke: Dict[str, List[float]] = {}
    kt: Dict[str, List[float]] = {}
    ppos: Dict[str, List[int]] = {}
    pe: Dict[str, List[float]] = {}
    for s, (key, t, e, purpose) in enumerate(book_stream):
        kpos.setdefault(key, []).append(s)
        ke.setdefault(key, []).append(e)
        kt.setdefault(key, []).append(t)
        ppos.setdefault(purpose, []).append(s)
        pe.setdefault(purpose, []).append(e)
    bounds = np.asarray(p.ev_book_start, dtype=np.int64)
    p.key_items = [
        (key,
         np.searchsorted(np.asarray(kpos[key], dtype=np.int64), bounds).tolist(),
         kpos[key],
         np.asarray(ke[key], dtype=np.float64),
         np.asarray(kt[key], dtype=np.float64),
         all(t == 0.0 for t in kt[key]),
         ke[key],
         kt[key])
        for key in kpos
    ]
    p.purpose_items = [
        (key,
         np.searchsorted(np.asarray(ppos[key], dtype=np.int64), bounds).tolist(),
         ppos[key],
         np.asarray(pe[key], dtype=np.float64),
         pe[key])
        for key in ppos
    ]
    return p


def analytic_brownout_index(
    program: CompiledProgram, budget_j: float, start_atom: int = 0
) -> int:
    """Estimate the first atom that cannot complete within ``budget_j``.

    ``searchsorted`` over the compiled cumulative draw-energy table: the
    largest prefix of atoms (whole atoms; commit draws included) whose
    total supply draw fits in the budget.  Returns ``program.n_atoms``
    when everything fits.  This is an *estimator*: it ignores harvest
    credited during execution (it under-predicts on live supplies) and
    the capacitor's per-draw rounding (so it can be off by one atom even
    on a dead supply).  The exact brown-out location is only defined by
    the replay itself — see the module docstring.
    """
    if not 0 <= start_atom <= program.n_atoms:
        raise ConfigurationError(
            f"start_atom must be in [0, {program.n_atoms}], got {start_atom}"
        )
    if budget_j < 0:
        raise ConfigurationError("budget_j must be non-negative")
    cum = program.cum_draw_energy
    target = cum[start_atom] + budget_j
    idx = int(np.searchsorted(cum, target, side="right")) - 1
    return min(idx, program.n_atoms)


# ---------------------------------------------------------------------------
# Program cache
# ---------------------------------------------------------------------------


class ProgramCache:
    """Memoized :func:`compile_program`, shared per model.

    Mirrors :class:`repro.fleet.cache.ModelCache`: scenarios sharing a
    quantized model (and runtime type/config) share one compiled program.
    Keys anchor on the runtime's ``qmodel`` identity plus the attributes
    that shape its atom program (type, ``use_dma``, ``bcm_mode``); a
    weakref finalizer evicts entries when the model is collected.
    Runtimes without a ``qmodel`` attribute (e.g. test toys with ad-hoc
    atom lists) are compiled uncached — callers keep their own reference.
    """

    def __init__(self) -> None:
        self._programs: Dict[Tuple, CompiledProgram] = {}
        self.hits = 0
        self.misses = 0
        # Double-checked build path: hit lookups stay lock-free; racing
        # first requests compile exactly once per key (see
        # repro.concurrency for the convention).
        self._lock = ForkSafeLock()

    def __len__(self) -> int:
        return len(self._programs)

    def get(self, runtime: InferenceRuntime) -> CompiledProgram:
        anchor = getattr(runtime, "qmodel", None)
        if anchor is None:
            self.misses += 1
            if _obs.ENABLED:
                _obs.count("sim.program_cache.misses")
                with _spans.span("sim.program.compile",
                                 runtime=runtime.name):
                    return compile_program(runtime)
            return compile_program(runtime)
        key = (
            type(runtime).__module__,
            type(runtime).__qualname__,
            id(anchor),
            getattr(runtime, "use_dma", None),
            getattr(runtime, "bcm_mode", None),
        )
        program = self._programs.get(key)
        if program is not None:
            self.hits += 1
            if _obs.ENABLED:
                _obs.count("sim.program_cache.hits")
            return program
        with self._lock:
            program = self._programs.get(key)
            if program is not None:
                self.hits += 1
                if _obs.ENABLED:
                    _obs.count("sim.program_cache.hits")
                return program
            self.misses += 1
            if _obs.ENABLED:
                _obs.count("sim.program_cache.misses")
                with _spans.span("sim.program.compile",
                                 runtime=runtime.name):
                    program = compile_program(runtime)
            else:
                program = compile_program(runtime)
            self._programs[key] = program
            try:
                weakref.finalize(anchor, self._programs.pop, key, None)
            except TypeError:  # pragma: no cover - non-weakref-able anchor
                pass
            return program

    def summary(self) -> str:
        return (
            f"program cache: {len(self)} compiled programs, "
            f"{self.hits} hits / {self.misses} misses"
        )


#: Process-wide default cache (fleet workers each get their own process copy).
PROGRAM_CACHE = ProgramCache()


# ---------------------------------------------------------------------------
# The fast machine
# ---------------------------------------------------------------------------


class FastMachine:
    """Drop-in replacement for :class:`IntermittentMachine` (``engine="fast"``).

    Same constructor contract and :meth:`run` signature; results are
    bit-identical (see module docstring).  :meth:`run_deferred` is the
    session-level entry point that lets callers batch ``compute_logits``
    across many completed inferences.
    """

    def __init__(
        self,
        device: "Device",
        runtime: InferenceRuntime,
        *,
        monitor: Optional[VoltageMonitor] = None,
        stall_limit: int = 6,
        max_reboots: int = 10000,
        cache: Optional[ProgramCache] = None,
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
        self._cache = cache if cache is not None else PROGRAM_CACHE
        self._program: Optional[CompiledProgram] = None
        self._fallback: Optional[IntermittentMachine] = None

    # -- public API ---------------------------------------------------------

    def run(self, x: np.ndarray) -> RunResult:
        """Execute one inference on sample ``x`` and return statistics."""
        result, _ = self.run_deferred(x, defer_logits=False)
        return result

    def run_deferred(
        self, x: np.ndarray, *, defer_logits: bool = True
    ) -> Tuple[RunResult, bool]:
        """Like :meth:`run`, optionally leaving ``logits``/``predicted_class``
        unset on completed results.

        Returns ``(result, needs_logits)``; when ``needs_logits`` is true
        the caller owns filling both fields (sessions batch this via
        :meth:`~repro.sim.runtime.InferenceRuntime.compute_logits_batch`).
        """
        if self._needs_fallback():
            if self._fallback is None:
                self._fallback = IntermittentMachine(
                    self.device,
                    self.runtime,
                    monitor=self.monitor,
                    stall_limit=self.stall_limit,
                    max_reboots=self.max_reboots,
                )
            return self._fallback.run(x), False
        if self._program is None:
            self._program = self._cache.get(self.runtime)
        if self.device.supply is None:
            return self._run_continuous(x, defer_logits)
        if _obs.ENABLED:
            # A span per harvested replay (continuous runs are microsecond
            # scale — a span there would dominate the thing it measures).
            with _spans.span("sim.replay", runtime=self.runtime.name):
                return self._run_harvested(x, defer_logits)
        return self._run_harvested(x, defer_logits)

    @property
    def program(self) -> CompiledProgram:
        """The compiled program (compiling on first access)."""
        if self._program is None:
            self._program = self._cache.get(self.runtime)
        return self._program

    def warm(self) -> None:
        """Do the one-time setup ahead of the first run.

        Sessions call this at construction so program compilation (or the
        fallback machine's validation pass) lands in session setup rather
        than in the first sample's latency.
        """
        if self._needs_fallback():
            if self._fallback is None:
                self._fallback = IntermittentMachine(
                    self.device,
                    self.runtime,
                    monitor=self.monitor,
                    stall_limit=self.stall_limit,
                    max_reboots=self.max_reboots,
                )
            self._fallback.warm()
            return
        if self._program is None:
            self._program = self._cache.get(self.runtime)

    # -- internals ----------------------------------------------------------

    def _needs_fallback(self) -> bool:
        """Exact replay only covers the stock simulator classes.

        Re-evaluated on every run: the checked attributes (supply, trace,
        capacitor, voltage logging) are plain mutable state a caller may
        swap between runs, and each change must re-route to the
        reference machine.  Only the ``Device`` class lookup is hoisted
        (module-level lazy import).
        """
        device = self.device
        if type(device) is not _device_class() or type(device.meter) is not EnergyMeter:
            return True
        supply = device.supply
        if supply is not None:
            if type(supply) is not EnergyHarvester or supply.voltage_log is not None:
                return True
            if type(supply.capacitor) is not Capacitor:
                return True
            # The reference path calls trace.energy twice per draw (the
            # replay calls it once): only provably pure stock traces are
            # safe to replay; custom subclasses delegate.  EmpiricalTrace
            # qualifies — its energy is a pure function of (t, dt); the
            # internal segment hint is a lookup accelerator that never
            # changes a returned value — which is what keeps the whole
            # corpus on the fast path.
            if type(supply.trace) not in (
                ConstantTrace, SquareWaveTrace, StochasticRFTrace, SolarTrace,
                EmpiricalTrace,
            ):
                return True
        if self.monitor is not None and type(self.monitor) is not VoltageMonitor:
            return True
        return False

    @staticmethod
    def _diff(old: Dict[str, float], new: Dict[str, float], new_keys) -> Dict[str, float]:
        """Replicate ``EnergyMeter.diff``: end-meter key order, ``end - start``."""
        out = {}
        for key, start in old.items():
            end = new.get(key, start)
            out[key] = end - start
        for key in new_keys:
            if key not in old:
                out[key] = new[key] - 0.0
        return out

    def _finish_logits(self, x, completed: bool, defer_logits: bool):
        if not completed:
            return None, None, False
        if defer_logits:
            return None, None, True
        logits = self.runtime.compute_logits(x)
        return logits, int(np.argmax(logits)), False

    @staticmethod
    def _cumsum_last(program: CompiledProgram, tag: str, series: np.ndarray) -> float:
        """Last element of ``np.cumsum(series)`` through a reused buffer.

        ``cumsum`` is the bit-equality argument (sequential left-to-right
        additions); the preallocated ``out=`` buffer only removes the
        per-run allocation the profiler flagged in session hot loops.
        """
        scratch = program._cumsum_scratch.get(tag)
        if scratch is None:
            scratch = np.empty_like(series)
            program._cumsum_scratch[tag] = scratch
        np.cumsum(series, out=scratch)
        return float(scratch[-1])

    @staticmethod
    def _series_total(program: CompiledProgram, tag: str, series: np.ndarray,
                      head: float) -> float:
        """``head`` plus ``series[1:]``, accumulated left to right.

        Short series (small programs like BASE/SONIC) run faster through
        a plain Python loop than through a ``np.cumsum`` call — and the
        loop *is* the sequential definition of cumsum, so the result is
        bit-identical either way.  (Not ``sum()``: CPython 3.12's builtin
        uses compensated summation, which is *better* than sequential
        adds and therefore not bit-equal to the reference.)
        """
        n = series.shape[0] - 1
        if n <= 64:
            terms = program._terms_l.get(tag)
            if terms is None:
                terms = series[1:].tolist()
                program._terms_l[tag] = terms
            total = head
            for term in terms:
                total = total + term
            return total
        series[0] = head
        return FastMachine._cumsum_last(program, tag, series)

    @staticmethod
    def _record_machine_events(
        completed: bool, reboots: int, restores: int,
        brownouts: int, checkpoints: int,
    ) -> None:
        """Publish one harvested run's event counts into the registry."""
        _obs.count("machine.runs")
        _obs.count("machine.completed" if completed else "machine.dnf")
        if reboots:
            _obs.count("machine.reboots", reboots)
        if restores:
            _obs.count("machine.restores", restores)
        if brownouts:
            _obs.count("machine.brownouts", brownouts)
        if checkpoints:
            _obs.count("machine.checkpoints", checkpoints)

    def _run_continuous(self, x, defer_logits: bool) -> Tuple[RunResult, bool]:
        p = self._program
        meter = self.device.meter
        new_e: Dict[str, float] = {}
        new_t: Dict[str, float] = {}
        new_p: Dict[str, float] = {}
        series_total = self._series_total
        e_start = meter.energy_j
        t_start = meter.time_s
        p_start = meter.purpose_energy_j
        for key in p.comp_keys:
            new_e[key] = series_total(
                p, "e:" + key, p._energy_series[key], e_start.get(key, 0.0)
            )
            new_t[key] = series_total(
                p, "t:" + key, p._time_series[key], t_start.get(key, 0.0)
            )
        for key in p.purpose_keys:
            new_p[key] = series_total(
                p, "p:" + key, p._purpose_series[key], p_start.get(key, 0.0)
            )

        diff_e = self._diff(meter.energy_j, new_e, p.comp_keys)
        diff_t = self._diff(meter.time_s, new_t, p.comp_keys)
        diff_p = self._diff(meter.purpose_energy_j, new_p, p.purpose_keys)

        for key in p.comp_keys:
            meter.energy_j[key] = new_e[key]
            meter.time_s[key] = new_t[key]
        for key in p.purpose_keys:
            meter.purpose_energy_j[key] = new_p[key]

        active = sum(diff_t.values())
        energy = sum(diff_e.values())
        logits, pred, needs = self._finish_logits(x, True, defer_logits)
        result = RunResult(
            runtime=self.runtime.name,
            completed=True,
            logits=logits,
            predicted_class=pred,
            wall_time_s=active,
            active_time_s=active,
            charge_time_s=0.0,
            energy_j=energy,
            energy_by_component=diff_e,
            checkpoint_energy_j=diff_p.get("checkpoint", 0.0),
            reboots=0,
            executed_cycles=p.cont_executed_cycles,
            program_cycles=p.program_cycles,
            dnf_reason="",
        )
        if _obs.ENABLED:
            _obs.count("machine.runs")
            _obs.count("machine.completed")
        return result, needs

    def _run_harvested(self, x, defer_logits: bool) -> Tuple[RunResult, bool]:
        """Segment-batched exact replay of a harvested run.

        The capacitor recurrence itself (``sqrt(v**2 +/- 2E/C)`` per draw)
        is inherently sequential, so it stays scalar — but everything
        *around* it batches.  Non-divisible atoms between two divisible
        atoms form a *span* whose draw sequence is known at compile time
        (the event tables on :class:`CompiledProgram`): the replay
        precomputes the event clocks with one ``np.cumsum``, the harvested
        energies with one ``trace.energy_batch`` call, and the discharge
        terms from the per-capacitance draw table, leaving a ~15-op scalar
        loop per event.  Meter bookings are deferred and flushed per span
        (or up to the brown-out / snapshot event that interrupts it) via
        per-key cumsums over the compiled booking stream — the same
        left-to-right additions the reference makes, so every float stays
        bit-identical.  Recharge gaps batch the same way: the fixed-step
        charge clock/wait prefix sums and harvest energies are precomputed
        in blocks around the scalar voltage update.  Divisible atoms,
        snapshots, and restores keep the scalar ``draw`` path (their
        timing depends on the live voltage); a snapshot or brown-out
        inside a span invalidates the precomputed clocks beyond it, so
        batching simply restarts from that event.
        """
        p = self._program
        device = self.device
        supply = device.supply
        cap = supply.capacitor
        trace = supply.trace
        eff = supply.efficiency
        meter = device.meter
        runtime = self.runtime
        monitor = self.monitor

        cap_f = cap.capacitance_f
        v_max = cap.v_max
        v_off = cap.v_off
        v_on = cap.v_on
        v_off_sq = v_off ** 2
        half_c = 0.5 * cap_f
        const_power = trace.power_w if type(trace) is ConstantTrace else None
        trace_energy = trace.energy
        if type(trace) is SquareWaveTrace:
            # Specialized scalar twin of SquareWaveTrace.energy for the
            # storm/short-stretch paths: same operations in the same
            # order (bit-identical), minus method dispatch, attribute
            # reloads, and the dt >= 0 check (all dts here are >= 0).
            _sq_p = trace.power_w
            _sq_t = trace.period_s
            _sq_on = trace.duty * trace.period_s
            # Single-period fast path: most storm/checkpoint windows live
            # inside the period the previous call ended in.  The cached
            # bounds are shrunk by ~450 ulps per side so both scalar
            # floors provably land on the cached period index, making the
            # one-term evaluation bit-equal to the general loop.
            _c_p0 = 0.0
            _c_on = 0.0
            _c_lo = 1.0
            _c_hi = 0.0  # empty guard window: first call takes the loop

            def trace_energy(t, dt, _floor=math.floor, _max=max, _min=min):
                nonlocal _c_p0, _c_on, _c_lo, _c_hi
                end = t + dt
                if _c_lo <= t and end < _c_hi:
                    hi = end if end < _c_on else _c_on
                    if hi > t:
                        return _sq_p * (hi - t)
                    return _sq_p * 0.0
                total_on = 0.0
                k1 = int(_floor(end / _sq_t))
                for k in range(int(_floor(t / _sq_t)), k1 + 1):
                    p0 = k * _sq_t
                    lo = _max(t, p0)
                    hi = _min(end, p0 + _sq_on)
                    if hi > lo:
                        total_on += hi - lo
                _c_p0 = k1 * _sq_t
                _c_on = _c_p0 + _sq_on
                _c_lo = _c_p0 * (1.0 + 1e-13 if _c_p0 > 0.0 else 1.0 - 1e-13)
                p1 = (k1 + 1) * _sq_t
                _c_hi = p1 * (1.0 - 1e-13 if p1 > 0.0 else 1.0 + 1e-13)
                return _sq_p * total_on

        # The replay always hands ``energy_batch`` float64 arrays of one
        # shape with non-negative dts, so traces exporting a trusted
        # (validation-free) twin get called through it.
        energy_batch = getattr(trace, "energy_batch_trusted", trace.energy_batch)
        step = supply.charge_step_s
        timeout_s = supply.charge_timeout_s
        # Long-run mean harvest per recharge step, where the trace family
        # has a closed form — used only to size the first recharge batch
        # (an estimate; correctness never depends on it).
        if const_power is not None:
            mean_step_j = (const_power * step) * eff
        elif type(trace) is SquareWaveTrace:
            mean_step_j = trace.power_w * trace.duty * step * eff
        else:
            mean_step_j = 0.0

        e_by = dict(meter.energy_j)
        t_by = dict(meter.time_s)
        p_by = dict(meter.purpose_energy_j)
        start_e = dict(e_by)
        start_t = dict(t_by)
        start_p = dict(p_by)

        v = cap.voltage
        clock = supply.clock_s
        failures = supply.failures
        charge_time = supply.charge_time_s
        clock_start = clock
        charge_start = charge_time

        snapshot_on = p.snapshot_on_warning and monitor is not None
        v_warn = monitor.v_warn if monitor is not None else 0.0
        # Single-compare storm guard: v >= v_off > -1 always, so the
        # sentinel disables the low-voltage peek when snapshots are off.
        sv_warn = v_warn if snapshot_on else -1.0
        mon_warnings = monitor.warnings if monitor is not None else 0
        # Observability baselines (event counts publish as deltas at run
        # end; the replay arithmetic is untouched).
        _rec = _obs.ENABLED
        _failures0 = failures
        _mon0 = mon_warnings
        n_restores = 0

        e_get = e_by.get
        t_get = t_by.get
        p_get = p_by.get
        _sqrt = math.sqrt  # local bind: no module-attr lookup in hot loops

        def draw(bookings, time_s, total_j):
            """Scalar ``Device._draw_and_record`` path (see the reference
            replay) — used for divisible chunks, snapshots, and restores.

            ``v >= v_off`` is a loop invariant (brown-outs reset to
            ``v_off``, recharge only raises) and squaring is monotone, so
            the reference's ``max(0, .)`` clamps on ``avail``/``usable``
            are dead (``x - x == +0.0``, never negative).  ``avail`` is
            only read on the brown-out branch, so it is recomputed there
            from the captured pre-charge voltage — the same float, hence
            the same bits."""
            nonlocal v, clock, failures
            pv = v
            if const_power is not None:
                harvested = (const_power * time_s) * eff
            else:
                harvested = trace_energy(clock, time_s) * eff
            clock += time_s
            if harvested != 0.0:
                # A zero harvest leaves v bit-unchanged: correctly rounded
                # sqrt of the rounded square returns v exactly (relative
                # error < 1/4 ulp), so the charge update can be skipped.
                new_sq = v ** 2 + 2.0 * harvested / cap_f
                root = _sqrt(new_sq)
                v = root if root < v_max else v_max
            usable = half_c * (v ** 2 - v_off_sq)
            if total_j > usable:
                v = v_off
                failures += 1
                avail = half_c * (pv ** 2 - v_off_sq)
                spent = avail + harvested
                if total_j < spent:
                    spent = total_j
                scale = spent / total_j if total_j > 0 else 0.0
                for compo, t, e, purpose in bookings:
                    t = t * scale
                    e = e * scale
                    e_by[compo] = e_get(compo, 0.0) + e
                    t_by[compo] = t_get(compo, 0.0) + t
                    p_by[purpose] = p_get(purpose, 0.0) + e
                return False
            new_sq = v ** 2 - 2.0 * total_j / cap_f
            if new_sq < v_off_sq:
                new_sq = v_off_sq
            v = _sqrt(new_sq)
            for compo, t, e, purpose in bookings:
                e_by[compo] = e_get(compo, 0.0) + e
                t_by[compo] = t_get(compo, 0.0) + t
                p_by[purpose] = p_get(purpose, 0.0) + e
            return True

        n_atoms = p.n_atoms
        cycles_l = p.cycles
        power_l = p.power_w
        purpose_l = p.purpose
        component_l = p.component
        divisible_l = p.divisible
        iterations_l = p.iterations
        per_iter_l = p.per_iter
        e_iter_l = p.e_iter
        mem_unit_l = p.mem_unit
        fram_unit_l = p.fram_unit
        sram_count_l = p.sram_count
        commit_flag_l = p.commit_flag
        commit_time_l = p.commit_time
        commit_cpu_l = p.commit_cpu
        commit_fram_l = p.commit_fram
        volatile_words_l = p.volatile_words
        volatile_prev_l = p.volatile_prev

        drw_l = p.draw_table(cap_f)
        ev_dt_np = p.ev_dt
        ev_cycles_np = p.ev_cycles
        ev_dt_l = p.ev_dt_l
        ev_total_l = p.ev_total_l
        ev_atom_l = p.ev_atom
        ev_exec_l = p.ev_is_exec
        ev_snap_l = p.ev_snap_atom
        next_snap_l = p.ev_next_snap
        snap_cand_np = p.ev_snap_cand
        drw_cum = p.draw_cum(cap_f)
        drw_max = p.draw_max(cap_f)
        ck_draw_l = p.ck_draws() if snapshot_on else None
        warn_sq = sv_warn * sv_warn
        v_off_sq_safe = v_off_sq + drw_max + 1e-9
        # The recharge loop exits at the first ``v >= v_on``, so every
        # iteration enters below ``v_on``; when a single step's charge
        # cannot lift ``v_on**2`` past ``v_max**2``, the v_max clamp is
        # provably dead for the whole walk (margin covers fl drift).
        if const_power is not None:
            _step_chg_bound = (2.0 * ((const_power * step) * eff)) / cap_f
        elif type(trace) is SquareWaveTrace:
            _step_chg_bound = (2.0 * ((trace.power_w * step) * eff)) / cap_f
        else:
            _step_chg_bound = float("inf")
        no_clamp_recharge = (
            v_on * v_on + _step_chg_bound * 1.000001 + 1e-9
            < v_max * v_max
        )
        # Constant-dt operand for the recharge ``energy_batch`` calls
        # (``np.broadcast_to`` costs more than the batch at these sizes).
        step_fill = None

        def draw_ev(jj):
            """``draw`` specialized to stream event ``jj``: duration,
            total, bookings and the discharge subtrahend all come from
            compiled tables (the storm path replays events one at a time,
            but their per-event constants never change).  Dead-clamp and
            deferred-``avail`` reasoning as in ``draw``."""
            nonlocal v, clock, failures
            pv = v
            time_s = ev_dt_l[jj]
            if const_power is not None:
                harvested = (const_power * time_s) * eff
            else:
                harvested = trace_energy(clock, time_s) * eff
            clock += time_s
            if harvested != 0.0:
                new_sq = v ** 2 + 2.0 * harvested / cap_f
                root = _sqrt(new_sq)
                v = root if root < v_max else v_max
            usable = half_c * (v ** 2 - v_off_sq)
            total_j = ev_total_l[jj]
            if total_j > usable:
                v = v_off
                failures += 1
                avail = half_c * (pv ** 2 - v_off_sq)
                spent = avail + harvested
                if total_j < spent:
                    spent = total_j
                scale = spent / total_j if total_j > 0 else 0.0
                for compo, t, e, purpose in ev_bookings_l[jj]:
                    t = t * scale
                    e = e * scale
                    e_by[compo] = e_get(compo, 0.0) + e
                    t_by[compo] = t_get(compo, 0.0) + t
                    p_by[purpose] = p_get(purpose, 0.0) + e
                return False
            new_sq = v ** 2 - drw_l[jj]
            if new_sq < v_off_sq:
                new_sq = v_off_sq
            v = _sqrt(new_sq)
            for compo, t, e, purpose in ev_bookings_l[jj]:
                e_by[compo] = e_get(compo, 0.0) + e
                t_by[compo] = t_get(compo, 0.0) + t
                p_by[purpose] = p_get(purpose, 0.0) + e
            return True
        ev_durable_l = p.ev_durable_to
        ev_bookings_l = p.ev_bookings
        ev_book_start_l = p.ev_book_start
        book_stream = p.book_stream
        atom_lo_l = p.atom_event_lo
        span_end_l = p.span_end_atom
        key_items = p.key_items
        purpose_items = p.purpose_items

        durable_atom = 0
        durable_it = 0
        cursor_atom = 0
        cursor_it = 0
        executed_cycles = 0.0
        sub_exec = 0.0
        reboots = 0
        stall = 0
        last_da, last_di = -1, -1
        dnf_reason = ""
        completed = False

        # Scratch for flush cumsums: every range it accumulates is bounded
        # by the booking stream (and the event count never exceeds it).
        kbuf = np.empty(len(book_stream) + 2)

        def flush(e0, e1):
            """Apply events ``[e0, e1)``'s deferred meter bookings and
            executed-cycle adds — the reference's add sequence, replayed
            either directly (short ranges) or as per-key cumsums."""
            nonlocal sub_exec
            if e0 >= e1:
                return
            b0 = ev_book_start_l[e0]
            b1 = ev_book_start_l[e1]
            if b1 - b0 <= 80:
                for ev in range(e0, e1):
                    if ev_exec_l[ev]:
                        sub_exec += cycles_l[ev_atom_l[ev]]
                for s in range(b0, b1):
                    compo, t, e, purpose = book_stream[s]
                    e_by[compo] = e_get(compo, 0.0) + e
                    t_by[compo] = t_get(compo, 0.0) + t
                    p_by[purpose] = p_get(purpose, 0.0) + e
                return
            # Commit events intersperse cycles of 0.0; "+ 0.0" is exact
            # on the non-negative running sum.
            buf = kbuf[:e1 - e0 + 1]
            buf[0] = sub_exec
            buf[1:] = ev_cycles_np[e0:e1]
            np.add.accumulate(buf, out=buf)
            sub_exec = float(buf[-1])
            e_ins = []
            t_ins = []
            p_ins = []
            for key, cnt, pos, earr, tarr, t_zero, e_tl, t_tl in key_items:
                klo = cnt[e0]
                khi = cnt[e1]
                if khi <= klo:
                    continue
                first = pos[klo]
                if khi - klo <= 48:
                    # Few terms: the sequential adds beat numpy call
                    # overhead (and are the cumsum's exact definition).
                    e_val = e_get(key, 0.0)
                    for x in e_tl[klo:khi]:
                        e_val = e_val + x
                    if t_zero:
                        t_val = None
                    else:
                        t_val = t_get(key, 0.0)
                        for x in t_tl[klo:khi]:
                            t_val = t_val + x
                else:
                    kb = kbuf[:khi - klo + 1]
                    kb[0] = e_get(key, 0.0)
                    kb[1:] = earr[klo:khi]
                    np.add.accumulate(kb, out=kb)
                    e_val = float(kb[-1])
                    if t_zero:
                        t_val = None
                    else:
                        kb[0] = t_get(key, 0.0)
                        kb[1:] = tarr[klo:khi]
                        np.add.accumulate(kb, out=kb)
                        t_val = float(kb[-1])
                if key in e_by:
                    e_by[key] = e_val
                else:
                    e_ins.append((first, key, e_val))
                if t_val is None:
                    # Every term is 0.0 and the accumulator is >= 0, so
                    # the add sequence leaves it bit-unchanged.
                    if key not in t_by:
                        t_ins.append((first, key, 0.0))
                elif key in t_by:
                    t_by[key] = t_val
                else:
                    t_ins.append((first, key, t_val))
            for key, cnt, pos, earr, e_tl in purpose_items:
                klo = cnt[e0]
                khi = cnt[e1]
                if khi <= klo:
                    continue
                if khi - klo <= 48:
                    p_val = p_get(key, 0.0)
                    for x in e_tl[klo:khi]:
                        p_val = p_val + x
                else:
                    kb = kbuf[:khi - klo + 1]
                    kb[0] = p_get(key, 0.0)
                    kb[1:] = earr[klo:khi]
                    np.add.accumulate(kb, out=kb)
                    p_val = float(kb[-1])
                if key in p_by:
                    p_by[key] = p_val
                else:
                    p_ins.append((pos[klo], key, p_val))
            # New keys enter the dicts in first-booking order, matching
            # the reference's insertion sequence.
            if e_ins:
                e_ins.sort()
                for _, key, val in e_ins:
                    e_by[key] = val
            if t_ins:
                t_ins.sort()
                for _, key, val in t_ins:
                    t_by[key] = val
            if p_ins:
                p_ins.sort()
                for _, key, val in p_ins:
                    p_by[key] = val

        while True:
            # === the reference's _run_from(atoms, cursor, durable) ===
            sub_exec = 0.0
            browned = False
            while cursor_atom < n_atoms:
                ca = cursor_atom
                if not divisible_l[ca]:
                    # === span replay over [ca, span_end[ca]) ===
                    e_idx = atom_lo_l[ca]
                    e_end = atom_lo_l[span_end_l[ca]]
                    e_flush = e_idx
                    while e_idx < e_end and not browned:
                        # Snapshot peek: the reference consults the
                        # monitor only at the top of an atom with
                        # un-durable progress, so only an exec event with
                        # ``durable_atom < atom`` can snapshot (and shift
                        # every later batch clock).  Handle exactly those
                        # on the scalar path; every other event — however
                        # low the voltage — stays batched, and the batch
                        # body rewinds here the moment a genuine
                        # candidate turns low mid-stretch.
                        if v <= sv_warn and durable_atom < ev_snap_l[e_idx]:
                            jj = e_idx
                            aa = ev_atom_l[jj]
                            if e_flush < jj:
                                flush(e_flush, jj)
                            mon_warnings += 1
                            ck_bk, ck_t, ck_tot = ck_draw_l[aa]
                            if not draw(ck_bk, ck_t, ck_tot):
                                cursor_atom, cursor_it = aa, 0
                                browned = True
                                break
                            durable_atom, durable_it = aa, 0
                            if not draw_ev(jj):
                                cursor_atom, cursor_it = aa, 0
                                browned = True
                                break
                            sub_exec += cycles_l[aa]
                            e_idx = jj + 1
                            if commit_flag_l[aa]:
                                cj = e_idx
                                if not draw_ev(cj):
                                    cursor_atom, cursor_it = aa + 1, 0
                                    browned = True
                                    break
                                dto = ev_durable_l[cj]
                                if dto >= 0:
                                    durable_atom, durable_it = dto, 0
                                e_idx = cj + 1
                            e_flush = e_idx
                            continue
                        if snapshot_on:
                            # Batch-entry sizing.  A numpy entry costs a
                            # fixed ~20-30us in dispatches regardless of
                            # size, while the scalar stretch below costs
                            # ~0.5us per event — the break-even sits near
                            # 48 events.  When the nearest place a
                            # snapshot could fire — the next
                            # straight-line candidate, or (above the
                            # warning level) the zero-harvest drain
                            # horizon, whichever is farther — is within
                            # that window, hop to it in scalar form and
                            # skip the fixed cost.  Otherwise take the
                            # whole span; the
                            # predictive cut after the charge table trims
                            # it to the first *projected* trigger, so a
                            # mid-batch snapshot almost never discards a
                            # computed tail.
                            lim = next_snap_l[e_idx + 1]
                            if v > sv_warn:
                                g = int(drw_cum.searchsorted(
                                    float(drw_cum[e_idx])
                                    + (v * v - warn_sq)))
                                if g > lim:
                                    lim = g
                            if lim > e_end:
                                lim = e_end
                            B = (lim - e_idx) if lim - e_idx <= 48 \
                                else e_end - e_idx
                        else:
                            B = e_end - e_idx
                        if B > 48:
                            # Provably trigger-free prefix (used to slice
                            # the walk below, and to skip the predictive
                            # cut when it covers the whole batch): charge
                            # only raises the zero-harvest drain floor,
                            # so while ``v**2 - cum_drain`` provably
                            # clears every threshold — brown-out and the
                            # v_off clamp (by more than the largest
                            # single discharge) and, with snapshots on,
                            # the warning level — the walk needs no
                            # per-event tests.  The 1e-9 margin dwarfs
                            # the prefix-sum association drift (ulps),
                            # and the v_max clamp only lowers the
                            # trajectory, which is the safe direction for
                            # every skipped test.
                            k0 = 0
                            if B >= 16:
                                lim = v * v - v_off_sq_safe
                                if snapshot_on:
                                    lim_w = v * v - warn_sq - 1e-9
                                    if lim_w < lim:
                                        lim = lim_w
                                if lim > 0.0:
                                    k0 = int(drw_cum.searchsorted(
                                        float(drw_cum[e_idx]) + lim)) \
                                        - e_idx
                                    if k0 > B:
                                        k0 = B
                                    elif k0 < 0:
                                        k0 = 0
                            dts = ev_dt_np[e_idx:e_idx + B]
                            seg = np.empty(B + 1)
                            seg[0] = clock
                            seg[1:] = dts
                            clocks_np = np.cumsum(seg)
                            if const_power is not None:
                                h_np = (const_power * dts) * eff
                            else:
                                h_np = energy_batch(clocks_np[:B], dts) * eff
                            chg_np = (2.0 * h_np) / cap_f
                            if snapshot_on and k0 < B:
                                # Predictive cut: project the squared
                                # voltage over the batch (charge minus
                                # drain, no clamp/rounding — drift is
                                # ulps against a margin of volts) and end
                                # the batch just before the first
                                # candidate event projected at or below
                                # the warning level.  The exact in-loop
                                # test still decides; a misprediction
                                # only costs one rewind.  When the
                                # trigger-free prefix spans the batch the
                                # projection cannot fire (charge only
                                # raises the proven floor), so it is
                                # skipped outright.
                                pred = ((v * v + float(drw_cum[e_idx]))
                                        + np.cumsum(chg_np))
                                pred -= drw_cum[e_idx + 1:e_idx + 1 + B]
                                trig = (pred[:B - 1] <= warn_sq) \
                                    & snap_cand_np[e_idx + 1:e_idx + B]
                                am = int(trig.argmax())
                                if trig[am]:
                                    B = am + 1
                                    if k0 > B:
                                        k0 = B
                            # Only the per-event charge is walked; clocks
                            # and harvests are read at break points alone,
                            # so they stay arrays (no bulk export).
                            chg_l = chg_np[:B].tolist()
                            clocks_l = clocks_np
                            h_l = h_np
                        else:
                            # Short stretch (snapshot storms fragment the
                            # span): the numpy call overhead outweighs the
                            # batch — compute the same sequential adds and
                            # per-element products in scalar form.
                            k0 = 0
                            clocks_l = [clock]
                            h_l = []
                            chg_l = []
                            cc = clock
                            for kk in range(B):
                                d = ev_dt_l[e_idx + kk]
                                if const_power is not None:
                                    hv = (const_power * d) * eff
                                else:
                                    hv = trace_energy(cc, d) * eff
                                h_l.append(hv)
                                chg_l.append((2.0 * hv) / cap_f)
                                cc = cc + d
                                clocks_l.append(cc)
                        tot_s = ev_total_l[e_idx:e_idx + B]
                        drw_s = drw_l[e_idx:e_idx + B]
                        dto_s = ev_durable_l[e_idx:e_idx + B]
                        # Trigger-free prefix walk (proof above): charge,
                        # discharge, durable advance — no brown-out /
                        # clamp / warning tests.  When a prefix ends the
                        # proof is re-run from the *live* voltage (the
                        # zero-harvest floor ignores the charge the walk
                        # actually banked), which usually extends the
                        # test-free region across most of the batch; the
                        # re-proof is one ``searchsorted`` against the
                        # cached drain prefix table.
                        p0 = k0
                        while k0:
                            for chg_k, dr, dto in zip(
                                chg_l[p0 - k0:p0],
                                drw_s[p0 - k0:p0],
                                dto_s[p0 - k0:p0],
                            ):
                                if chg_k != 0.0:
                                    root = _sqrt(v ** 2 + chg_k)
                                    v = root if root < v_max else v_max
                                v = _sqrt(v ** 2 - dr)
                                if dto >= 0:
                                    durable_atom, durable_it = dto, 0
                            if p0 >= B:
                                break
                            lim = v * v - v_off_sq_safe
                            if snapshot_on:
                                lim_w = v * v - warn_sq - 1e-9
                                if lim_w < lim:
                                    lim = lim_w
                            k0 = 0
                            if lim > 0.0:
                                k0 = int(drw_cum.searchsorted(
                                    float(drw_cum[e_idx + p0]) + lim)) \
                                    - (e_idx + p0)
                                if k0 > B - p0:
                                    k0 = B - p0
                                elif k0 < 8:
                                    k0 = 0
                            p0 += k0
                        if p0 >= B:
                            walk = iter(())
                        elif p0:
                            walk = enumerate(
                                zip(chg_l[p0:], tot_s[p0:], drw_s[p0:],
                                    dto_s[p0:]),
                                p0,
                            )
                        else:
                            walk = enumerate(zip(chg_l, tot_s, drw_s, dto_s))
                        for k, (chg_k, tot, dr, dto) in walk:
                            if v <= sv_warn and durable_atom < ev_snap_l[
                                    e_idx + k]:
                                # A snapshot candidate turned low
                                # mid-batch: its checkpoint draw would
                                # shift every later event clock, so
                                # rewind to this event and let the peek
                                # above take over (same state, same
                                # verdict) on the scalar path.
                                jj = e_idx + k
                                flush(e_flush, jj)
                                clock = float(clocks_l[k])
                                e_idx = jj
                                e_flush = jj
                                break
                            if chg_k != 0.0:
                                # chg == 0.0 leaves v bit-unchanged (the
                                # sqrt/square round trip is exact).
                                pv = v
                                new_sq = v ** 2 + chg_k
                                root = _sqrt(new_sq)
                                v = root if root < v_max else v_max
                            vsq = v ** 2
                            # No ``usable < 0`` clamp: ``v >= v_off`` is a
                            # loop invariant and squaring and rounding are
                            # both monotone, so ``vsq >= v_off_sq`` — the
                            # clamp would compare ``-0.0 < 0.0`` at worst,
                            # which is already false.
                            usable = half_c * (vsq - v_off_sq)
                            if tot > usable:
                                jj = e_idx + k
                                # Brown-out bracketed at this event: flush
                                # the clean prefix, book the scaled partial
                                # draw, and record the reference's cursor.
                                flush(e_flush, jj)
                                # Pre-charge voltage: ``pv`` is only
                                # captured when a charge step ran; with a
                                # zero charge v is already pre-charge.
                                if chg_k == 0.0:
                                    pv = v
                                clock = float(clocks_l[k + 1])
                                v = v_off
                                failures += 1
                                avail = half_c * (pv ** 2 - v_off_sq)
                                if avail < 0.0:
                                    avail = 0.0
                                spent = avail + float(h_l[k])
                                if tot < spent:
                                    spent = tot
                                scale = spent / tot if tot > 0 else 0.0
                                for compo, t, e, purpose in ev_bookings_l[jj]:
                                    t = t * scale
                                    e = e * scale
                                    e_by[compo] = e_get(compo, 0.0) + e
                                    t_by[compo] = t_get(compo, 0.0) + t
                                    p_by[purpose] = p_get(purpose, 0.0) + e
                                if ev_exec_l[jj]:
                                    cursor_atom, cursor_it = ev_atom_l[jj], 0
                                else:
                                    cursor_atom, cursor_it = ev_atom_l[jj] + 1, 0
                                browned = True
                                break
                            new_sq = vsq - dr
                            if new_sq < v_off_sq:
                                new_sq = v_off_sq
                            v = _sqrt(new_sq)
                            if dto >= 0:
                                durable_atom, durable_it = dto, 0
                        else:
                            clock = float(clocks_l[B])
                            e_idx += B
                    if browned:
                        break
                    flush(e_flush, e_end)
                    cursor_atom = span_end_l[ca]
                    cursor_it = 0
                    continue

                # === divisible atom: live-voltage chunking stays scalar ===
                if snapshot_on and (
                    durable_atom < ca
                    or (durable_atom == ca and durable_it < cursor_it)
                ):
                    low = v <= v_warn
                    if low:
                        mon_warnings += 1
                        if cursor_it > 0:
                            ct, ce, cf = _commit_cost(C.FLEX_COMMIT_WORDS)
                            ck_cpu = ce - cf
                            ck_bk = [("cpu", ct, ck_cpu, "checkpoint"),
                                     ("fram", 0.0, cf, "checkpoint")]
                            ck_t, ck_tot = ct, ck_cpu + cf
                        else:
                            ck_bk, ck_t, ck_tot = ck_draw_l[ca]
                        if not draw(ck_bk, ck_t, ck_tot):
                            browned = True
                            break
                        durable_atom, durable_it = ca, cursor_it

                # === _run_divisible ===
                iters = iterations_l[ca]
                per_iter = per_iter_l[ca]
                e_iter = e_iter_l[ca]
                e_iter_floor = e_iter if e_iter > 1e-18 else 1e-18
                a_cycles = cycles_l[ca]
                a_power = power_l[ca]
                a_purpose = purpose_l[ca]
                a_comp = component_l[ca]
                a_mem = mem_unit_l[ca]
                a_fram = fram_unit_l[ca]
                a_sram = sram_count_l[ca]
                committing = commit_flag_l[ca]
                div_exec = 0.0
                chunk_failed = False
                while cursor_it < iters:
                    remaining = iters - cursor_it
                    usable_now = half_c * (v ** 2 - v_off_sq)
                    if usable_now < 0.0:
                        usable_now = 0.0
                    chunk = int(usable_now / e_iter_floor)
                    if chunk > remaining:
                        chunk = remaining
                    if chunk < 1:
                        chunk = 1
                    f = chunk * per_iter
                    time_s = a_cycles * f * C.EFFECTIVE_CYCLE_S
                    core_j = a_power * time_s
                    energy_j = core_j + f * a_mem
                    fram_j = f * a_fram
                    sram_j = f * a_sram * C.SRAM_ACCESS_J
                    core_booked = energy_j - fram_j - sram_j
                    bookings = [(a_comp, time_s, core_booked, a_purpose)]
                    total = core_booked
                    if fram_j:
                        bookings.append(("fram", 0.0, fram_j, a_purpose))
                        total = total + fram_j
                    if sram_j:
                        bookings.append(("sram", 0.0, sram_j, a_purpose))
                        total = total + sram_j
                    if not draw(bookings, time_s, total):
                        chunk_failed = True
                        break
                    div_exec += a_cycles * chunk * per_iter
                    if committing:
                        count = chunk
                        tt = commit_time_l[ca] * count
                        ce_b = commit_cpu_l[ca] * count
                        cf_b = commit_fram_l[ca] * count
                        if not draw(
                            [("cpu", tt, ce_b, "checkpoint"),
                             ("fram", 0.0, cf_b, "checkpoint")],
                            tt,
                            ce_b + cf_b,
                        ):
                            chunk_failed = True
                            break
                    cursor_it += chunk
                    if committing and volatile_words_l[ca] == 0:
                        durable_atom = ca
                        durable_it = cursor_it
                if chunk_failed:
                    browned = True
                    break
                sub_exec += div_exec
                cursor_atom = ca + 1
                cursor_it = 0
                if committing and volatile_words_l[ca] == 0:
                    durable_atom, durable_it = cursor_atom, 0

            if not browned:
                executed_cycles = executed_cycles + sub_exec
                completed = True
                break

            # === the reference's PowerFailureError handler ===
            reboots += 1
            device.on_power_failure()
            if reboots >= self.max_reboots:
                dnf_reason = f"exceeded max_reboots={self.max_reboots}"
                break
            if durable_atom == last_da and durable_it == last_di:
                stall += 1
                if stall >= self.stall_limit:
                    dnf_reason = (
                        f"no durable progress across {stall} power cycles"
                    )
                    break
            else:
                stall = 0
            last_da, last_di = durable_atom, durable_it

            # === supply.recharge(), inlined and step-batched ===
            waited = 0.0
            aborted = False
            if mean_step_j > 0.0:
                deficit = half_c * (v_on ** 2 - v ** 2)
                rblock = int(deficit / mean_step_j) + 8
                if rblock > 65536:
                    rblock = 65536
                elif rblock < 64:
                    rblock = 64
            else:
                rblock = 512
            while v < v_on:
                B = rblock
                to_timeout = int((timeout_s - waited) / step) + 2
                if B > to_timeout:
                    B = to_timeout
                if rblock < 16384:
                    rblock = rblock * 4
                seg = np.empty(B + 1)
                seg[0] = clock
                seg[1:] = step
                clocks_np = np.cumsum(seg)
                seg[0] = waited
                waiteds_np = np.cumsum(seg)
                if const_power is not None:
                    # The per-step charge is clock-independent: one scalar.
                    hv = (const_power * step) * eff
                    chg = (2.0 * hv) / cap_f
                    chg_l = None
                else:
                    if step_fill is None or step_fill.size < B:
                        step_fill = np.full(max(B, 4096), step)
                    h_np = energy_batch(
                        clocks_np[:B], step_fill[:B]
                    ) * eff
                    chg_np = (2.0 * h_np) / cap_f
                    chg_l = chg_np.tolist()
                    nz_np = np.nonzero(chg_np)[0]
                    nz_l = nz_np.tolist()
                stopped = False
                if float(waiteds_np[B - 1]) < timeout_s:
                    # No step in this block can cross the timeout: drop
                    # the per-step check from the tight loop.  Clocks and
                    # waits are only read at the exit step, so the arrays
                    # are indexed directly instead of exported wholesale.
                    if chg_l is None:
                        for k in range(B):
                            if v >= v_on:
                                clock = float(clocks_np[k])
                                waited = float(waiteds_np[k])
                                stopped = True
                                break
                            new_sq = v ** 2 + chg
                            root = _sqrt(new_sq)
                            v = root if root < v_max else v_max
                        else:
                            clock = float(clocks_np[B])
                            waited = float(waiteds_np[B])
                    else:
                        # v changes only at nonzero-charge steps (a zero
                        # charge's sqrt/square round trip is bit-exact),
                        # so walk the on-phase steps only.  The reference
                        # loop would first observe v >= v_on at the step
                        # *after* the one that crossed it.  With the
                        # clamp provably dead (see ``no_clamp_recharge``)
                        # the per-step compare drops out too.
                        if no_clamp_recharge:
                            # Test-free prefix: the clamp-free chain is
                            # monotone and tracks the charge prefix sum to
                            # a few ulps per step, so while
                            # ``v**2 + cum_charge`` stays a relative
                            # 1e-9 below ``v_on**2`` (orders of magnitude
                            # above the accumulated drift) no step can
                            # cross ``v_on`` — walk those without the
                            # exit compare.
                            kf = int(np.cumsum(chg_np).searchsorted(
                                v_on * v_on * (1.0 - 1e-9) - v * v))
                            pos = int(nz_np.searchsorted(kf)) if kf > 0 \
                                else 0
                            for k in nz_l[:pos]:
                                v = _sqrt(v ** 2 + chg_l[k])
                            for k in nz_l[pos:]:
                                v = _sqrt(v ** 2 + chg_l[k])
                                if v >= v_on:
                                    k1 = k + 1
                                    if k1 < B:
                                        clock = float(clocks_np[k1])
                                        waited = float(waiteds_np[k1])
                                        stopped = True
                                    else:
                                        clock = float(clocks_np[B])
                                        waited = float(waiteds_np[B])
                                    break
                            else:
                                clock = float(clocks_np[B])
                                waited = float(waiteds_np[B])
                        else:
                            for k in nz_l:
                                new_sq = v ** 2 + chg_l[k]
                                root = _sqrt(new_sq)
                                v = root if root < v_max else v_max
                                if v >= v_on:
                                    k1 = k + 1
                                    if k1 < B:
                                        clock = float(clocks_np[k1])
                                        waited = float(waiteds_np[k1])
                                        stopped = True
                                    else:
                                        clock = float(clocks_np[B])
                                        waited = float(waiteds_np[B])
                                    break
                            else:
                                clock = float(clocks_np[B])
                                waited = float(waiteds_np[B])
                else:
                    clocks_l = clocks_np.tolist()
                    waiteds_l = waiteds_np.tolist()
                    for k in range(B):
                        if v >= v_on:
                            clock = clocks_l[k]
                            waited = waiteds_l[k]
                            stopped = True
                            break
                        if waiteds_l[k] >= timeout_s:
                            clock = clocks_l[k]
                            aborted = True
                            stopped = True
                            break
                        new_sq = v ** 2 + (chg if chg_l is None else chg_l[k])
                        root = _sqrt(new_sq)
                        v = root if root < v_max else v_max
                    else:
                        clock = clocks_l[B]
                        waited = waiteds_l[B]
                if stopped:
                    break
            if aborted:
                dnf_reason = (
                    f"supply delivered too little energy in "
                    f"{timeout_s} s to reach v_on"
                )
                break
            charge_time = charge_time + waited

            restore = runtime.restore_words()
            if restore:
                vol = 0 if durable_it > 0 else volatile_prev_l[durable_atom]
                words = restore + vol
                rcycles = C.COMMIT_BASE_CYCLES + words * C.COMMIT_CYCLES_PER_WORD
                rtime = rcycles * C.CYCLE_S
                rcpu = C.CPU_ACTIVE_W * rtime
                rfram = words * C.FRAM_READ_RAW_J
                if not draw(
                    [("cpu", rtime, rcpu, "checkpoint"),
                     ("fram", 0.0, rfram, "checkpoint")],
                    rtime,
                    rcpu + rfram,
                ):
                    continue  # pathological: failed during restore
                n_restores += 1
            cursor_atom, cursor_it = durable_atom, durable_it

        # === write back state and assemble the RunResult ===
        cap.voltage = v
        supply.clock_s = clock
        supply.failures = failures
        supply.charge_time_s = charge_time
        if monitor is not None:
            monitor.warnings = mon_warnings
        for key, val in e_by.items():
            meter.energy_j[key] = val
        for key, val in t_by.items():
            meter.time_s[key] = val
        for key, val in p_by.items():
            meter.purpose_energy_j[key] = val

        diff_e = self._diff(start_e, e_by, [k for k in e_by if k not in start_e])
        diff_t = self._diff(start_t, t_by, [k for k in t_by if k not in start_t])
        diff_p = self._diff(start_p, p_by, [k for k in p_by if k not in start_p])

        if _rec:
            self._record_machine_events(
                completed, reboots, n_restores,
                failures - _failures0, mon_warnings - _mon0,
            )
        logits, pred, needs = self._finish_logits(x, completed, defer_logits)
        active = sum(diff_t.values())
        charge = charge_time - charge_start
        wall = clock - clock_start
        result = RunResult(
            runtime=runtime.name,
            completed=completed,
            logits=logits,
            predicted_class=pred,
            wall_time_s=wall,
            active_time_s=active,
            charge_time_s=charge,
            energy_j=sum(diff_e.values()),
            energy_by_component=diff_e,
            checkpoint_energy_j=diff_p.get("checkpoint", 0.0),
            reboots=reboots,
            executed_cycles=executed_cycles,
            program_cycles=p.program_cycles,
            dnf_reason=dnf_reason,
        )
        return result, needs


# ---------------------------------------------------------------------------
# Engine selection
# ---------------------------------------------------------------------------


def make_machine(
    device: "Device",
    runtime: InferenceRuntime,
    *,
    engine: str = "reference",
    monitor: Optional[VoltageMonitor] = None,
    stall_limit: int = 6,
    max_reboots: int = 10000,
):
    """Build the requested simulation engine over ``(device, runtime)``.

    ``engine="reference"`` is the stepwise :class:`IntermittentMachine`;
    ``engine="fast"`` is the precompiled :class:`FastMachine` (bit-identical
    results, falls back to the reference for exotic configurations).
    """
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r} (expected one of {ENGINES})"
        )
    if engine == "fast":
        return FastMachine(
            device, runtime, monitor=monitor, stall_limit=stall_limit,
            max_reboots=max_reboots,
        )
    return IntermittentMachine(
        device, runtime, monitor=monitor, stall_limit=stall_limit,
        max_reboots=max_reboots,
    )
