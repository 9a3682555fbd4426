"""Vectorized fast-path simulation engine, bit-identical to the reference.

:class:`~repro.sim.machine.IntermittentMachine` walks a runtime's atom
program one Python-level step at a time: every atom pays a stack of calls
(``Device.execute`` -> ``execute_draw`` -> ``_draw_and_record`` ->
``EnergyMeter.record`` x3 -> ``EnergyHarvester.draw`` -> capacitor math),
so fleet throughput is bounded by interpreter overhead rather than by the
hardware.  The cost model itself is static — per-atom cycle/energy costs
are fixed once the program is compiled — which makes the walk replayable
from precomputed tables.  The tables are built by calling
:mod:`repro.hw.board`'s draw builders, the same functions ``Device``
calls, so both engines price every draw with one piece of code.
:class:`FastMachine` exploits that in two ways:

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
  rounds, so skipping "certainly safe" atoms leaves the capacitor a few
  ulps away from the reference trajectory and can flip a borderline
  brown-out comparison.  The fast path therefore *replays* the exact scalar
  recurrence, but from precompiled per-atom cost tables with the supply,
  meter, and monitor state inlined into local variables — the same
  arithmetic with none of the per-atom call/dispatch overhead.
  ``_run_harvested`` drives the phases of ``_Replay``, which batch
  everything around that recurrence; it is the only harvested replay,
  and its oracle is the reference machine.

See DESIGN.md's fast-engine section and the differential conformance
suite (``tests/test_fastsim_conformance.py``) for the equivalence
contract.

``FastMachine`` silently delegates to the reference machine for
configurations it cannot replay exactly (subclassed device/supply/
monitor/meter, or harvester voltage logging enabled), so ``engine="fast"``
is always safe to request.
"""

from __future__ import annotations

import marshal
import math
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import ENGINES
from repro.concurrency import ForkSafeLock
from repro.errors import ConfigurationError
from repro.hw.board import (
    Device,
    atom_cost,
    booking_total,
    commit_cost,
    commit_draw,
    execute_draw,
    restore_draw,
)
from repro.hw.constants import FLEX_COMMIT_WORDS
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
from repro.sim.atoms import Atom, total_cycles, validate_program
from repro.sim.machine import IntermittentMachine
from repro.sim.results import RunResult
from repro.sim.runtime import InferenceRuntime



# ---------------------------------------------------------------------------
# Program compilation
# ---------------------------------------------------------------------------


@dataclass
class CompiledProgram:
    """Precompiled cost tables for one runtime's atom program.

    Every draw in the tables comes from :mod:`repro.hw.board`'s draw
    builders, the code ``Device`` meters with, and its total from
    :func:`~repro.hw.board.booking_total` — so each table float is the
    reference's, by construction.

    A program is read-only while it is replayed, so one program serves
    every machine, model and thread that shares it (see
    :class:`ProgramCache`).  The ``_*_series`` arrays keep index 0 free
    for the running meter value; a :class:`FastMachine` writes that head
    into its own copy of the series, never into the program.  The lazy
    memos (``_draw_tables``, ``_terms_l``, ``_ck_draws``) are pure
    functions of the tables, so two threads that fill one at once store
    equal values.
    """

    atoms: List  # the runtime's atom list, as compiled
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
    divisible: List[bool] = field(default_factory=list)
    commit_flag: List[bool] = field(default_factory=list)
    per_iter: List[float] = field(default_factory=list)
    #: A divisible atom's energy per iteration, its commit included — the
    #: divisor the reference sizes chunks with (0.0 for other atoms).
    e_iter: List[float] = field(default_factory=list)
    volatile_prev: List[int] = field(default_factory=list)  # len n_atoms + 1

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
    #: Per-capacitance discharge tables (see :meth:`draw_tables`); a lazy
    #: memo, idempotent like the two below.
    _draw_tables: Dict[float, Tuple] = field(default_factory=dict)
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
            self._ck_draws = [
                _priced(commit_draw(self.volatile_prev[a] + FLEX_COMMIT_WORDS))
                for a in range(self.n_atoms)]
        return self._ck_draws

    def draw_tables(self, cap_f: float) -> Tuple[List[float], np.ndarray,
                                                   float]:
        """Discharge tables for a ``cap_f``-farad capacitor.

        ``(drw, cum, max)``: the per-event ``Capacitor.draw`` subtrahend
        ``(2.0 * ev_total) / cap_f`` (elementwise, as a list); its prefix
        sums (len ``n_events + 1``, head 0.0) — the squared-voltage drain
        of events ``< j`` assuming zero harvest, a lower bound on the live
        trajectory used to size batches and to bound the provably
        trigger-free prefix; and its largest entry (0.0 with no events).
        """
        tables = self._draw_tables.get(cap_f)
        if tables is None:
            drw = (2.0 * self.ev_total) / cap_f
            cum = np.zeros(self.n_events + 1, dtype=np.float64)
            np.cumsum(drw, out=cum[1:])
            tables = (drw.tolist(), cum,
                      float(drw.max()) if self.n_events else 0.0)
            self._draw_tables[cap_f] = tables
        return tables


def _priced(draw: Tuple[list, float]) -> Tuple[list, float, float]:
    """A draw builder's ``(bookings, time_s)`` plus the energy it takes —
    the argument triple of :meth:`_Replay.draw`."""
    bookings, time_s = draw
    return bookings, time_s, booking_total(bookings)


def compile_program(runtime: InferenceRuntime) -> CompiledProgram:
    """Compile ``runtime``'s atom program into replay tables.

    Atom programs are assumed to be a pure function of the runtime
    instance (every runtime in this repo memoizes ``build_atoms``); the
    reference machine re-requests the program per run, the fast machine
    compiles it once.  The tables depend only on what
    :func:`program_key` spells — the label-free atoms, the runtime's
    ``snapshot_on_warning`` and ``commit_enabled`` — which is what lets
    :class:`ProgramCache` share one program across runtimes whose keys
    are equal.  Each table builder below owns one group of tables.
    """
    atoms = runtime.build_atoms()
    validate_program(atoms)
    p = CompiledProgram(
        atoms=atoms,
        snapshot_on_warning=runtime.snapshot_on_warning,
        n_atoms=len(atoms),
        program_cycles=total_cycles(atoms),
    )
    draws = _atom_draws(p, runtime.commit_enabled)
    _continuous_series(p, draws)
    _event_tables(p, draws)
    _snapshot_hints(p)
    _booking_key_index(p)
    return p


def _atom_draws(p: CompiledProgram, commit_on: bool) -> List[Tuple]:
    """Fill the per-atom tables and return each atom's draws.

    Entry ``i`` is ``(exec, commit)``: atom ``i``'s execute draw and its
    progress-commit draw (``None`` when it does not commit), each priced
    (:func:`_priced`).  A divisible atom's draws are one whole-loop chunk,
    which is what the reference books under continuous power; under
    harvested power its chunks are built live (:meth:`_Replay.divisible`).
    """
    draws = []
    for atom in p.atoms:
        committing = commit_on and atom.commit
        p.cycles.append(atom.cycles)
        p.divisible.append(atom.divisible)
        p.commit_flag.append(committing)
        if atom.divisible:
            per_iter = 1.0 / atom.iterations
            e_iter = atom_cost(atom, per_iter)[1]
            if committing:
                e_iter += commit_cost(atom.commit_words)[1]
            count = atom.iterations
            fraction = atom.iterations * per_iter  # chunk == all iterations
        else:
            per_iter, e_iter, count, fraction = 1.0, 0.0, 1, 1.0
        p.per_iter.append(per_iter)
        p.e_iter.append(e_iter)
        draws.append((
            _priced(execute_draw(atom, fraction)),
            _priced(commit_draw(atom.commit_words, count)) if committing
            else None,
        ))
    p.volatile_prev = [0] + [a.volatile_words for a in p.atoms]
    return draws


def _continuous_series(p: CompiledProgram, draws: List[Tuple]) -> None:
    """The continuous replay's tables.

    Under continuous power the reference books each atom's execute draw,
    then its commit draw, in program order.  That booking stream, grouped
    by meter key and by purpose in first-seen order, is the per-key term
    series (behind a head slot); the run's executed cycles are summed the
    reference's way.
    """
    stream: List[Tuple] = []
    executed = 0.0
    for atom, (ex, commit), per_iter in zip(p.atoms, draws, p.per_iter):
        stream.extend(ex[0])
        if commit is not None:
            stream.extend(commit[0])
        if atom.divisible:
            executed += atom.cycles * atom.iterations * per_iter
        else:
            executed += atom.cycles
    p.cont_executed_cycles = 0.0 + executed
    by_key, by_purpose = _group_bookings(stream)
    for key, (_, e_terms, t_terms) in by_key.items():
        p.comp_keys.append(key)
        p._energy_series[key] = np.array([0.0] + e_terms, dtype=np.float64)
        p._time_series[key] = np.array([0.0] + t_terms, dtype=np.float64)
    for key, (_, e_terms) in by_purpose.items():
        p.purpose_keys.append(key)
        p._purpose_series[key] = np.array([0.0] + e_terms, dtype=np.float64)


def _event_tables(p: CompiledProgram, draws: List[Tuple]) -> None:
    """The harvested segment-replay event tables.

    One event per supply draw over the non-divisible atoms — the execute
    draw, then the commit draw when committing — holding the very floats
    the per-atom draws hold.  Divisible atoms contribute no events and
    delimit spans.
    """
    ev_dt: List[float] = []
    ev_total: List[float] = []
    ev_cycles: List[float] = []
    book_stream: List[Tuple] = []
    p.ev_book_start.append(0)
    for i, (atom, (ex, commit)) in enumerate(zip(p.atoms, draws)):
        p.atom_event_lo.append(len(ev_dt))
        if atom.divisible:
            continue
        for draw, is_exec in ((ex, True), (commit, False)):
            if draw is None:
                continue
            bookings, time_s, total_j = draw
            ev_dt.append(time_s)
            ev_total.append(total_j)
            ev_cycles.append(atom.cycles if is_exec else 0.0)
            p.ev_atom.append(i)
            p.ev_is_exec.append(is_exec)
            p.ev_durable_to.append(
                i + 1 if not is_exec and atom.volatile_words == 0 else -1)
            p.ev_bookings.append(bookings)
            book_stream.extend(bookings)
            p.ev_book_start.append(len(book_stream))
    p.atom_event_lo.append(len(ev_dt))
    p.n_events = len(ev_dt)
    p.ev_dt = np.asarray(ev_dt, dtype=np.float64)
    p.ev_total = np.asarray(ev_total, dtype=np.float64)
    p.ev_cycles = np.asarray(ev_cycles, dtype=np.float64)
    p.ev_dt_l = ev_dt
    p.ev_total_l = ev_total
    p.book_stream = book_stream

    span_end = [0] * (p.n_atoms + 1)
    span_end[p.n_atoms] = p.n_atoms
    for i in range(p.n_atoms - 1, -1, -1):
        span_end[i] = i if p.divisible[i] else span_end[i + 1]
    p.span_end_atom = span_end


def _snapshot_hints(p: CompiledProgram) -> None:
    """The snapshot-candidacy operand and the straight-line candidate hints.

    Replay the durable cursor over the events once (commits of
    volatile-free atoms advance it) and mark the exec events it lags
    behind — the only places a snapshot can fire when the program runs
    uninterrupted.
    """
    p.ev_snap_atom = [
        a if is_exec else -(1 << 30)
        for a, is_exec in zip(p.ev_atom, p.ev_is_exec)
    ]
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


def _booking_key_index(p: CompiledProgram) -> None:
    """Index the harvested booking stream by meter key and by purpose
    (``key_items`` / ``purpose_items``) for :meth:`_Replay.flush`."""
    by_key, by_purpose = _group_bookings(p.book_stream)
    bounds = np.asarray(p.ev_book_start, dtype=np.int64)

    def counts(pos: List[int]) -> List[int]:
        return np.searchsorted(np.asarray(pos, dtype=np.int64), bounds).tolist()

    p.key_items = [
        (key, counts(pos), pos, np.asarray(e_terms, dtype=np.float64),
         np.asarray(t_terms, dtype=np.float64),
         all(t == 0.0 for t in t_terms), e_terms, t_terms)
        for key, (pos, e_terms, t_terms) in by_key.items()
    ]
    p.purpose_items = [
        (key, counts(pos), pos, np.asarray(e_terms, dtype=np.float64), e_terms)
        for key, (pos, e_terms) in by_purpose.items()
    ]


def _group_bookings(stream: List[Tuple]) -> Tuple[Dict, Dict]:
    """Group booking tuples by meter key and by purpose, keys in
    first-seen order (the order the reference's meter dicts gain them).

    Returns ``(by_key, by_purpose)``: ``by_key[key]`` is ``(positions,
    energies, times)`` and ``by_purpose[purpose]`` is ``(positions,
    energies)``, each list in stream order.
    """
    by_key: Dict[str, Tuple[List[int], List[float], List[float]]] = {}
    by_purpose: Dict[str, Tuple[List[int], List[float]]] = {}
    for s, (key, t, e, purpose) in enumerate(stream):
        group = by_key.get(key)
        if group is None:
            group = by_key[key] = ([], [], [])
        group[0].append(s)
        group[1].append(e)
        group[2].append(t)
        group = by_purpose.get(purpose)
        if group is None:
            group = by_purpose[purpose] = ([], [])
        group[0].append(s)
        group[1].append(e)
    return by_key, by_purpose


# ---------------------------------------------------------------------------
# Program cache
# ---------------------------------------------------------------------------


#: Distinct compiled programs the content tier keeps alive.  At the
#: default profile the seven engine-aware studies together compile 19.
_SHARED_PROGRAMS = 32

_ATOM_CONTENT = attrgetter(
    *(f.name for f in fields(Atom) if f.name != "label"))


def program_key(runtime: InferenceRuntime) -> bytes:
    """The content key of ``runtime``'s compiled program.

    It spells every input :func:`compile_program` reads — the atoms, the
    runtime's ``snapshot_on_warning`` and ``commit_enabled`` — except
    ``Atom.label``, which nothing that builds or replays a program reads
    (``validate_program`` names it only in an error message).  Models
    that differ in weights or in the names of their pruned channels
    therefore share a key.  ``marshal`` format 2 writes each value's type
    code and a float's exact bits, with no object references, so equal
    keys mean equally typed, bit-equal inputs (``1`` is not ``1.0``).
    """
    return marshal.dumps(
        (runtime.snapshot_on_warning, runtime.commit_enabled,
         tuple(map(_ATOM_CONTENT, runtime.build_atoms()))), 2)


def content_key(runtime: InferenceRuntime) -> bytes:
    """:class:`ProgramCache`'s content key for ``runtime``.

    A runtime that exposes its planner's signature (see
    :meth:`~repro.sim.runtime.InferenceRuntime.program_signature`) is
    keyed on it and the two flags :func:`compile_program` reads, so a
    lookup builds no atoms; any other runtime (duck-typed ones too) on
    :func:`program_key`.  Equal signatures plan equal label-free atoms,
    so either key names one program.
    """
    planned = getattr(runtime, "program_signature", None)
    signature = None if planned is None else planned()
    if signature is None:
        return program_key(runtime)
    return marshal.dumps(
        ("plan", runtime.snapshot_on_warning, runtime.commit_enabled,
         signature), 2)


class ProgramCache:
    """Memoized :func:`compile_program` in two tiers.

    The *identity* tier mirrors :class:`repro.fleet.cache.ModelCache`:
    keys anchor on the runtime's ``qmodel`` identity plus the attributes
    that shape its atom program (type, ``use_dma``, ``bcm_mode``); hits
    are lock-free, and a weakref finalizer evicts an entry when its model
    is collected.  On an identity miss the *content* tier looks the
    program up by :func:`content_key`, so runtimes over models that
    differ only in weights (another seed) share one program; only a
    content miss builds atoms and compiles.  The content tier is an LRU of
    ``_SHARED_PROGRAMS`` programs.  Sharing across models and threads is
    safe because replay never writes to a program (see
    :class:`CompiledProgram`).  Runtimes without a ``qmodel`` attribute
    (e.g. test toys with ad-hoc atom lists) are compiled uncached —
    callers keep their own reference.
    """

    def __init__(self) -> None:
        self._programs: Dict[Tuple, CompiledProgram] = {}
        self._shared: "OrderedDict[bytes, CompiledProgram]" = OrderedDict()
        self.hits = 0
        self.shared = 0
        self.misses = 0
        # Double-checked build path: hit lookups stay lock-free; racing
        # first requests resolve exactly once per key (see
        # repro.concurrency for the convention).
        self._lock = ForkSafeLock()

    def __len__(self) -> int:
        return len(self._programs)

    def get(self, runtime: InferenceRuntime) -> CompiledProgram:
        anchor = getattr(runtime, "qmodel", None)
        if anchor is None:
            return self._compile(runtime)
        key = (
            type(runtime).__module__,
            type(runtime).__qualname__,
            id(anchor),
            getattr(runtime, "use_dma", None),
            getattr(runtime, "bcm_mode", None),
        )
        program = self._programs.get(key)
        if program is None:
            # Outside the lock: a thread whose program is already shared
            # should not queue behind another thread's compile.
            content = content_key(runtime)
            with self._lock:
                program = self._programs.get(key)
                if program is None:
                    program = self._programs[key] = self._by_content(
                        runtime, content)
                    try:
                        weakref.finalize(anchor, self._programs.pop, key, None)
                    except TypeError:  # pragma: no cover - non-weakref-able anchor
                        pass
                    return program
        self.hits += 1
        if _obs.ENABLED:
            _obs.count("sim.program_cache.hits")
        return program

    def _by_content(self, runtime: InferenceRuntime,
                    key: bytes) -> CompiledProgram:
        """The content tier (the caller holds the lock)."""
        program = self._shared.get(key)
        if program is not None:
            self._shared.move_to_end(key)
            self.shared += 1
            if _obs.ENABLED:
                _obs.count("sim.program_cache.shared")
            return program
        program = self._shared[key] = self._compile(runtime)
        if len(self._shared) > _SHARED_PROGRAMS:
            self._shared.popitem(last=False)
        return program

    def _compile(self, runtime: InferenceRuntime) -> CompiledProgram:
        self.misses += 1
        if _obs.ENABLED:
            _obs.count("sim.program_cache.misses")
            with _spans.span("sim.program.compile", runtime=runtime.name):
                return compile_program(runtime)
        return compile_program(runtime)

    def summary(self) -> str:
        return (
            f"program cache: {len(self._shared)} compiled programs for "
            f"{len(self)} models, {self.hits} hits / {self.shared} shared "
            f"/ {self.misses} misses"
        )


#: Process-wide default cache (fleet workers each get their own process copy).
PROGRAM_CACHE = ProgramCache()


# ---------------------------------------------------------------------------
# The harvested replay
# ---------------------------------------------------------------------------


def _square_wave_energy(trace: SquareWaveTrace):
    """Scalar twin of ``trace.energy`` for the replay's scalar draws.

    The same operations in the same order as
    :meth:`SquareWaveTrace.energy` (bit-identical), minus method dispatch,
    attribute reloads, and the ``dt >= 0`` check (every replay dt is
    ``>= 0``).  Single-period fast path: most storm/checkpoint windows
    live inside the period the previous call ended in.  The cached bounds
    are shrunk by a relative ``1e-13`` (~450 ulps) per side so both
    scalar floors provably land on the cached period index, making the
    one-term evaluation bit-equal to the general loop.
    """
    power = trace.power_w
    period = trace.period_s
    on_len = trace.duty * trace.period_s
    c_on = 0.0
    c_lo = 1.0
    c_hi = 0.0  # empty guard window: the first call takes the loop

    def energy(t, dt, _floor=math.floor, _max=max, _min=min):
        nonlocal c_on, c_lo, c_hi
        end = t + dt
        if c_lo <= t and end < c_hi:
            hi = end if end < c_on else c_on
            if hi > t:
                return power * (hi - t)
            return power * 0.0
        total_on = 0.0
        k1 = int(_floor(end / period))
        for k in range(int(_floor(t / period)), k1 + 1):
            p0 = k * period
            lo = _max(t, p0)
            hi = _min(end, p0 + on_len)
            if hi > lo:
                total_on += hi - lo
        p0 = k1 * period
        c_on = p0 + on_len
        c_lo = p0 * (1.0 + 1e-13 if p0 > 0.0 else 1.0 - 1e-13)
        p1 = (k1 + 1) * period
        c_hi = p1 * (1.0 - 1e-13 if p1 > 0.0 else 1.0 + 1e-13)
        return power * total_on

    return energy


class _Replay:
    """One harvested run's replay state and the phases that advance it.

    The capacitor recurrence (``sqrt(v**2 +/- 2E/C)`` per draw) is
    inherently sequential, so it stays scalar — but everything *around*
    it batches.  Non-divisible atoms between two divisible atoms form a
    *span* whose draw sequence is known at compile time (the event tables
    on :class:`CompiledProgram`): :meth:`batch` precomputes a stretch of
    event clocks and harvests, the walks keep a ~15-op scalar loop per
    event, and meter bookings are deferred to :meth:`flush`.  Divisible
    atoms, checkpoint storms and restores keep the scalar :meth:`draw`
    (their timing depends on the live voltage); recharge gaps batch in
    blocks of fixed steps.

    The *state* is the capacitor voltage ``v``; the supply's ``clock``,
    ``failures`` and ``charge_time``; the monitor's ``warnings``; the
    ``durable_*``/``cursor_*`` positions; the current pass's executed
    cycles ``sub_exec``; and the meter accumulators ``e_by``/``t_by``/
    ``p_by``.  Every other attribute is a per-run constant.  A phase reads
    the state on entry and writes it back on exit.  Phases run per span,
    batch, storm event, divisible chunk, restore or recharge — never per
    walked event — so the per-event loops keep their state in locals.

    Every phase relies on two invariants:

    * ``v >= v_off``.  Brown-outs reset ``v`` to ``v_off``, draws clamp at
      it, and charge only raises it.  Squaring and rounding are monotone,
      so ``v**2 - v_off**2 >= 0`` and the reference's ``max(0, .)``
      clamps on usable and available energy are dead (``x - x == +0.0``).
    * A zero charge leaves ``v`` bit-unchanged: the correctly rounded
      ``sqrt`` of the rounded square returns ``v`` exactly (relative error
      below 1/4 ulp), so a zero-harvest charge update is skipped.
    """

    def __init__(self, program: CompiledProgram, supply: EnergyHarvester,
                 meter: EnergyMeter,
                 monitor: Optional[VoltageMonitor]) -> None:
        p = self.p = program
        cap = supply.capacitor
        trace = supply.trace
        cap_f = self.cap_f = cap.capacitance_f
        self.v_max = cap.v_max
        self.v_off = cap.v_off
        self.v_on = cap.v_on
        self.v_off_sq = cap.v_off ** 2
        self.half_c = 0.5 * cap_f
        self.eff = supply.efficiency
        self.step = supply.charge_step_s
        self.timeout_s = supply.charge_timeout_s
        self.trace_energy = (_square_wave_energy(trace)
                             if type(trace) is SquareWaveTrace
                             else trace.energy)
        # The replay always hands ``energy_batch`` float64 arrays of one
        # shape with non-negative dts, so traces exporting a trusted
        # (validation-free) twin get called through it.
        self.energy_batch = getattr(trace, "energy_batch_trusted",
                                    trace.energy_batch)
        # Sizes recharge blocks (an estimate; results never depend on it).
        self.harvest_time = trace.harvest_time
        # Constant-dt operand for the recharge ``energy_batch`` calls
        # (``np.broadcast_to`` costs more than the batch at these sizes).
        self.step_fill = None
        snapshot_on = self.snapshot_on = (
            p.snapshot_on_warning and monitor is not None)
        self.v_warn = monitor.v_warn if monitor is not None else 0.0
        # Single-compare storm guard: v >= v_off > -1 always, so the
        # sentinel disables the low-voltage peek when snapshots are off.
        self.sv_warn = self.v_warn if snapshot_on else -1.0
        self.warn_sq = self.sv_warn * self.sv_warn
        self.drw_l, self.drw_cum, drw_max = p.draw_tables(cap_f)
        self.v_off_sq_safe = self.v_off_sq + drw_max + 1e-9
        self.ck_draws = p.ck_draws() if snapshot_on else None
        # Scratch for flush cumsums: every range it accumulates is bounded
        # by the booking stream (and the event count never exceeds it).
        self.kbuf = np.empty(len(p.book_stream) + 2)

        self.v = cap.voltage
        self.clock = supply.clock_s
        self.failures = supply.failures
        self.charge_time = supply.charge_time_s
        self.warnings = monitor.warnings if monitor is not None else 0
        self.e_by = dict(meter.energy_j)
        self.t_by = dict(meter.time_s)
        self.p_by = dict(meter.purpose_energy_j)
        self.durable_atom = self.durable_it = 0
        self.cursor_atom = self.cursor_it = 0
        self.sub_exec = 0.0

    # -- scalar draws -------------------------------------------------------

    def draw(self, bookings, time_s: float, total_j: float,
             _sqrt=math.sqrt) -> bool:
        """One ``Device._draw_and_record``: harvest over ``time_s``, then
        draw ``total_j`` and book ``bookings``; ``False`` on a brown-out.

        Serves divisible chunks, checkpoints, storm events and restores.
        Relies on both invariants: ``usable`` needs no clamp, and a zero
        harvest skips the charge update.  A storm event's discharge term
        ``2.0 * total_j / cap_f`` is the very float its
        :meth:`CompiledProgram.draw_tables` entry holds.
        """
        v = pv = self.v
        clock = self.clock
        harvested = self.trace_energy(clock, time_s) * self.eff
        self.clock = clock + time_s
        cap_f = self.cap_f
        if harvested != 0.0:
            root = _sqrt(v ** 2 + 2.0 * harvested / cap_f)
            v_max = self.v_max
            v = root if root < v_max else v_max
        v_off_sq = self.v_off_sq
        if total_j > self.half_c * (v ** 2 - v_off_sq):
            self._brownout(bookings, pv, harvested, total_j)
            return False
        new_sq = v ** 2 - 2.0 * total_j / cap_f
        if new_sq < v_off_sq:
            new_sq = v_off_sq
        self.v = _sqrt(new_sq)
        e_by = self.e_by
        t_by = self.t_by
        p_by = self.p_by
        for compo, t, e, purpose in bookings:
            e_by[compo] = e_by.get(compo, 0.0) + e
            t_by[compo] = t_by.get(compo, 0.0) + t
            p_by[purpose] = p_by.get(purpose, 0.0) + e
        return True

    def _brownout(self, bookings, pv: float, harvested: float,
                  total_j: float) -> None:
        """Book a browned-out draw the reference's way.

        ``v`` drops to ``v_off`` and each booking is scaled to the energy
        actually spent: ``avail + harvested``, capped at ``total_j``.
        ``avail`` is recomputed from the pre-charge voltage ``pv`` (the
        same float, hence the same bits); ``pv >= v_off`` keeps it
        non-negative, so the reference's clamp on it is dead.
        """
        self.v = self.v_off
        self.failures += 1
        spent = self.half_c * (pv ** 2 - self.v_off_sq) + harvested
        if total_j < spent:
            spent = total_j
        scale = spent / total_j if total_j > 0 else 0.0
        e_by = self.e_by
        t_by = self.t_by
        p_by = self.p_by
        for compo, t, e, purpose in bookings:
            t = t * scale
            e = e * scale
            e_by[compo] = e_by.get(compo, 0.0) + e
            t_by[compo] = t_by.get(compo, 0.0) + t
            p_by[purpose] = p_by.get(purpose, 0.0) + e

    def checkpoint(self, atom: int, it: int) -> bool:
        """FLEX checkpoint-on-warning at position ``(atom, it)``.

        Counts the monitor warning and draws the reference's snapshot:
        the live volatile words plus ``FLEX_COMMIT_WORDS`` — the compiled
        per-atom draw at the top of an atom, the bare commit mid-loop
        (loop state is index-resumable).  On success the position becomes
        durable; ``False`` on a brown-out.
        """
        self.warnings += 1
        if it:
            ck_draw = _priced(commit_draw(FLEX_COMMIT_WORDS))
        else:
            ck_draw = self.ck_draws[atom]
        if not self.draw(*ck_draw):
            return False
        self.durable_atom, self.durable_it = atom, it
        return True

    def storm(self, e: int, e_end: int) -> int:
        """A checkpoint storm: span events from ``e`` (a snapshot
        candidate) on the scalar path while the monitor stays low.

        Every candidate — an exec event whose atom's progress is not
        durable — checkpoints before it executes; the checkpoint shifts
        every later event clock, so no batch can run across it.  The
        events in between draw on the same scalar path, which is the
        walk's arithmetic (``draw``'s discharge term is the draw-table
        float, its bookings are the ones :meth:`flush` would replay), so
        batching resumes exactly where the voltage recovers.  Returns the
        event index after the storm, or ``-1`` on a brown-out (the cursor
        then holds the reference's resume point).
        """
        p = self.p
        draw = self.draw
        ev_atom = p.ev_atom
        ev_exec = p.ev_is_exec
        ev_bookings = p.ev_bookings
        ev_dt_l = p.ev_dt_l
        ev_total_l = p.ev_total_l
        ev_durable = p.ev_durable_to
        snap_l = p.ev_snap_atom
        sv_warn = self.sv_warn
        while e < e_end and self.v <= sv_warn:
            a = ev_atom[e]
            if self.durable_atom < snap_l[e] and not self.checkpoint(a, 0):
                self.cursor_atom, self.cursor_it = a, 0
                return -1
            if not draw(ev_bookings[e], ev_dt_l[e], ev_total_l[e]):
                self.cursor_atom = a if ev_exec[e] else a + 1
                self.cursor_it = 0
                return -1
            if ev_exec[e]:
                self.sub_exec += p.cycles[a]
            dto = ev_durable[e]
            if dto >= 0:
                self.durable_atom, self.durable_it = dto, 0
            e += 1
        return e

    def divisible(self, ca: int) -> bool:
        """``_run_divisible``: run loop atom ``ca`` from ``cursor_it`` in
        chunks sized by the live usable energy (no clamp: ``v >= v_off``),
        each followed by its bulk progress commit.  ``False`` on a
        brown-out, with ``cursor_it`` at the chunk that failed.
        """
        p = self.p
        atom = p.atoms[ca]
        iters = atom.iterations
        per_iter = p.per_iter[ca]
        e_iter = p.e_iter[ca]
        e_iter_floor = e_iter if e_iter > 1e-18 else 1e-18
        committing = p.commit_flag[ca]
        durable_loop = committing and atom.volatile_words == 0
        half_c = self.half_c
        v_off_sq = self.v_off_sq
        draw = self.draw
        it = self.cursor_it
        div_exec = 0.0
        while it < iters:
            remaining = iters - it
            chunk = int(half_c * (self.v ** 2 - v_off_sq) / e_iter_floor)
            if chunk > remaining:
                chunk = remaining
            if chunk < 1:
                chunk = 1
            if not draw(*_priced(execute_draw(atom, chunk * per_iter))):
                self.cursor_it = it
                return False
            div_exec += atom.cycles * chunk * per_iter
            if committing and not draw(
                    *_priced(commit_draw(atom.commit_words, chunk))):
                self.cursor_it = it
                return False
            it += chunk
            if durable_loop:
                self.durable_atom, self.durable_it = ca, it
        self.sub_exec += div_exec
        self.cursor_atom, self.cursor_it = ca + 1, 0
        if durable_loop:
            self.durable_atom, self.durable_it = ca + 1, 0
        return True

    def restore(self, words: int) -> bool:
        """Read progress back after a reboot: ``words`` of progress record
        plus the snapshot's volatile words (none mid-loop).  ``False`` when
        the restore itself browns out."""
        if self.durable_it == 0:
            words += self.p.volatile_prev[self.durable_atom]
        return self.draw(*_priced(restore_draw(words)))

    # -- span replay --------------------------------------------------------

    def span(self, ca: int) -> bool:
        """Replay the span of non-divisible atoms from ``ca`` up to the next
        divisible atom; ``False`` on a brown-out.

        Snapshot peek: the reference consults the monitor only at the top
        of an atom with un-durable progress, so only an exec event with
        ``durable_atom < atom`` can snapshot (and shift every later batch
        clock).  Such a candidate under a low monitor starts a
        :meth:`storm`; every other event — however low the voltage —
        stays batched, and :meth:`exact_walk` rewinds here the moment a
        genuine candidate turns low mid-batch.
        """
        p = self.p
        e_idx = p.atom_event_lo[ca]
        e_end = p.atom_event_lo[p.span_end_atom[ca]]
        e_flush = e_idx
        snap_l = p.ev_snap_atom
        while e_idx < e_end:
            if self.v <= self.sv_warn and self.durable_atom < snap_l[e_idx]:
                if e_flush < e_idx:
                    self.flush(e_flush, e_idx)
                e_idx = e_flush = self.storm(e_idx, e_end)
                if e_idx < 0:
                    return False
                continue
            B, k0, chg, clocks, h = self.batch(e_idx, e_end)
            p0 = self.prefix_walk(e_idx, B, k0, chg) if k0 else 0
            e_idx, e_flush, browned = self.exact_walk(
                e_idx, e_flush, p0, B, chg, clocks, h)
            if browned:
                return False
        self.flush(e_flush, e_end)
        self.cursor_atom, self.cursor_it = p.span_end_atom[ca], 0
        return True

    def batch(self, e_idx: int, e_end: int):
        """Size and precompute the next batch of span events from ``e_idx``.

        Returns ``(B, k0, chg, clocks, h)``: the batch length, its
        provably test-free prefix (:meth:`free_prefix`), the per-event
        charge terms ``(2.0 * h) / cap_f`` as a list, the event clocks
        (``B + 1`` of them, from the live clock) and the harvests.  Clocks
        are ``np.cumsum`` over the event dts — the sequential adds of the
        scalar ``clock += dt`` chain — and harvests are one
        ``energy_batch`` call, bitwise ``energy`` per element.  A numpy
        entry costs a fixed ~20-30us in dispatches while the scalar walk
        costs ~0.5us per event, so stretches under ~48 events compute the
        same adds and products in scalar form instead (the short
        stretch).
        """
        p = self.p
        if self.snapshot_on:
            # When the nearest place a snapshot could fire — the next
            # straight-line candidate, or (above the warning level) the
            # zero-harvest drain horizon, whichever is farther — is within
            # the break-even window, hop to it in scalar form.  Otherwise
            # take the whole span; the predictive cut below trims it to
            # the first *projected* trigger, so a mid-batch snapshot
            # almost never discards a computed tail.
            lim = p.ev_next_snap[e_idx + 1]
            v = self.v
            if v > self.sv_warn:
                cum = self.drw_cum
                g = int(cum.searchsorted(
                    float(cum[e_idx]) + (v * v - self.warn_sq)))
                if g > lim:
                    lim = g
            if lim > e_end:
                lim = e_end
            B = (lim - e_idx) if lim - e_idx <= 48 else e_end - e_idx
        else:
            B = e_end - e_idx
        clock = self.clock
        eff = self.eff
        cap_f = self.cap_f
        if B <= 48:
            trace_energy = self.trace_energy
            ev_dt_l = p.ev_dt_l
            clocks = [clock]
            h = []
            chg = []
            for kk in range(e_idx, e_idx + B):
                d = ev_dt_l[kk]
                hv = trace_energy(clock, d) * eff
                h.append(hv)
                chg.append((2.0 * hv) / cap_f)
                clock = clock + d
                clocks.append(clock)
            return B, 0, chg, clocks, h
        k0 = self.free_prefix(self.v, e_idx, B)
        dts = p.ev_dt[e_idx:e_idx + B]
        seg = np.empty(B + 1)
        seg[0] = clock
        seg[1:] = dts
        clocks = np.cumsum(seg)
        h = self.energy_batch(clocks[:B], dts) * eff
        chg_np = (2.0 * h) / cap_f
        if self.snapshot_on and k0 < B:
            # Predictive cut: project the squared voltage over the batch
            # (charge minus drain, no clamp/rounding — drift is ulps
            # against a margin of volts) and end the batch just before the
            # first candidate event projected at or below the warning
            # level.  The exact walk still decides; a misprediction only
            # costs one rewind.  A test-free prefix spanning the batch
            # cannot fire (charge only raises the proven floor), so the
            # projection is skipped then.
            cum = self.drw_cum
            v = self.v
            pred = (v * v + float(cum[e_idx])) + np.cumsum(chg_np)
            pred -= cum[e_idx + 1:e_idx + 1 + B]
            trig = (pred[:B - 1] <= self.warn_sq) \
                & p.ev_snap_cand[e_idx + 1:e_idx + B]
            am = int(trig.argmax())
            if trig[am]:
                B = am + 1
                if k0 > B:
                    k0 = B
        # Only the per-event charge is walked; clocks and harvests are
        # read at break points alone, so they stay arrays.
        return B, k0, chg_np[:B].tolist(), clocks, h

    def free_prefix(self, v: float, e: int, n: int) -> int:
        """How many of events ``[e, e + n)`` provably fire no test when
        walked from voltage ``v``.

        Charge only raises the zero-harvest drain floor ``v**2 -
        cum_drain`` (the ``v_max`` clamp binds only above the start
        voltage, so it never pulls the trajectory below that floor).
        While the floor clears every threshold — brown-out and the
        ``v_off`` clamp by more than the largest single discharge and,
        with snapshots on, the warning level — a walk needs no per-event
        tests.  The ``1e-9`` margin dwarfs the prefix-sum association
        drift (ulps).  Prefixes under 8 events return 0: too short to pay
        for a second loop.
        """
        lim = v * v - self.v_off_sq_safe
        if self.snapshot_on:
            lim_w = v * v - self.warn_sq - 1e-9
            if lim_w < lim:
                lim = lim_w
        if lim <= 0.0:
            return 0
        cum = self.drw_cum
        k = int(cum.searchsorted(float(cum[e]) + lim)) - e
        if k > n:
            return n
        return k if k >= 8 else 0

    def prefix_walk(self, e_idx: int, B: int, k0: int, chg) -> int:
        """Walk the batch's test-free prefix of ``k0`` events; returns the
        batch offset where the test-free region ends.

        Charge, discharge, durable advance — no brown-out, clamp or
        warning tests (:meth:`free_prefix` proved none can fire).  When a
        prefix ends the proof is re-run from the *live* voltage (the
        zero-harvest floor ignores the charge the walk actually banked),
        which usually extends the test-free region across most of the
        batch.
        """
        v = self.v
        v_max = self.v_max
        drw_l = self.drw_l
        dto_l = self.p.ev_durable_to
        sqrt = math.sqrt
        durable = -1
        p0 = k0
        while k0:
            lo = e_idx + p0 - k0
            hi = e_idx + p0
            for chg_k, dr, dto in zip(chg[p0 - k0:p0], drw_l[lo:hi],
                                      dto_l[lo:hi]):
                if chg_k != 0.0:
                    root = sqrt(v ** 2 + chg_k)
                    v = root if root < v_max else v_max
                v = sqrt(v ** 2 - dr)
                if dto >= 0:
                    durable = dto
            if p0 >= B:
                break
            k0 = self.free_prefix(v, hi, B - p0)
            p0 += k0
        self.v = v
        if durable >= 0:
            self.durable_atom, self.durable_it = durable, 0
        return p0

    def exact_walk(self, e_idx: int, e_flush: int, p0: int, B: int, chg,
                   clocks, h):
        """Walk batch events ``[p0, B)`` with every test; returns
        ``(e_idx, e_flush, browned)`` for the span loop.

        Three exits.  The batch completes: the clock jumps to its end.  A
        snapshot candidate turns low: its checkpoint would shift every
        later event clock, so flush and rewind to it for :meth:`storm`
        (same state, same verdict).  A brown-out is bracketed at an event:
        flush the clean prefix, book the scaled partial draw, and set the
        reference's cursor.  No ``usable < 0`` clamp: ``v >= v_off``.
        """
        p = self.p
        v = self.v
        da = self.durable_atom
        di = self.durable_it
        sv_warn = self.sv_warn
        v_max = self.v_max
        v_off_sq = self.v_off_sq
        half_c = self.half_c
        snap_l = p.ev_snap_atom
        sqrt = math.sqrt
        lo = e_idx + p0
        hi = e_idx + B
        walk = enumerate(zip(chg[p0:], p.ev_total_l[lo:hi], self.drw_l[lo:hi],
                             p.ev_durable_to[lo:hi]), p0)
        for k, (chg_k, tot, dr, dto) in walk:
            if v <= sv_warn and da < snap_l[e_idx + k]:
                jj = e_idx + k
                self.v = v
                self.durable_atom, self.durable_it = da, di
                self.flush(e_flush, jj)
                self.clock = float(clocks[k])
                return jj, jj, False
            if chg_k != 0.0:
                pv = v
                root = sqrt(v ** 2 + chg_k)
                v = root if root < v_max else v_max
            vsq = v ** 2
            if tot > half_c * (vsq - v_off_sq):
                jj = e_idx + k
                self.durable_atom, self.durable_it = da, di
                self.flush(e_flush, jj)
                # ``pv`` is only captured when a charge step ran; with a
                # zero charge v is already the pre-charge voltage.
                if chg_k == 0.0:
                    pv = v
                self.clock = float(clocks[k + 1])
                self._brownout(p.ev_bookings[jj], pv, float(h[k]), tot)
                a = p.ev_atom[jj]
                self.cursor_atom = a if p.ev_is_exec[jj] else a + 1
                self.cursor_it = 0
                return jj, jj, True
            new_sq = vsq - dr
            if new_sq < v_off_sq:
                new_sq = v_off_sq
            v = sqrt(new_sq)
            if dto >= 0:
                da, di = dto, 0
        self.v = v
        self.durable_atom, self.durable_it = da, di
        self.clock = float(clocks[B])
        return e_idx + B, e_flush, False

    def flush(self, e0: int, e1: int) -> None:
        """Apply events ``[e0, e1)``'s deferred meter bookings and
        executed-cycle adds.

        Dict values are independent accumulators, so each key replays
        its own adds in stream order — directly for short ranges, else as
        a ``np.add.accumulate`` seeded with the running value (the same
        sequential IEEE-754 adds).  Keys new to a dict enter in
        first-booking order, so the dicts match the reference's key order
        too.
        """
        if e0 >= e1:
            return
        p = self.p
        e_by = self.e_by
        t_by = self.t_by
        p_by = self.p_by
        e_get = e_by.get
        t_get = t_by.get
        p_get = p_by.get
        b0 = p.ev_book_start[e0]
        b1 = p.ev_book_start[e1]
        if b1 - b0 <= 80:
            sub_exec = self.sub_exec
            cycles_l = p.cycles
            ev_atom_l = p.ev_atom
            ev_exec_l = p.ev_is_exec
            for ev in range(e0, e1):
                if ev_exec_l[ev]:
                    sub_exec += cycles_l[ev_atom_l[ev]]
            self.sub_exec = sub_exec
            book_stream = p.book_stream
            for s in range(b0, b1):
                compo, t, e, purpose = book_stream[s]
                e_by[compo] = e_get(compo, 0.0) + e
                t_by[compo] = t_get(compo, 0.0) + t
                p_by[purpose] = p_get(purpose, 0.0) + e
            return
        # Commit events intersperse cycles of 0.0; "+ 0.0" is exact on
        # the non-negative running sum.
        self.sub_exec = self._add_seq(self.sub_exec, None, p.ev_cycles, e0, e1)
        add_seq = self._add_seq
        e_ins = []
        t_ins = []
        p_ins = []
        for key, cnt, pos, earr, tarr, t_zero, e_tl, t_tl in p.key_items:
            klo = cnt[e0]
            khi = cnt[e1]
            if khi <= klo:
                continue
            first = pos[klo]
            e_val = add_seq(e_get(key, 0.0), e_tl, earr, klo, khi)
            if key in e_by:
                e_by[key] = e_val
            else:
                e_ins.append((first, key, e_val))
            if t_zero:
                # Every term is 0.0 and the accumulator is >= 0, so the
                # add sequence leaves it bit-unchanged.
                if key not in t_by:
                    t_ins.append((first, key, 0.0))
                continue
            t_val = add_seq(t_get(key, 0.0), t_tl, tarr, klo, khi)
            if key in t_by:
                t_by[key] = t_val
            else:
                t_ins.append((first, key, t_val))
        for key, cnt, pos, earr, e_tl in p.purpose_items:
            klo = cnt[e0]
            khi = cnt[e1]
            if khi <= klo:
                continue
            p_val = add_seq(p_get(key, 0.0), e_tl, earr, klo, khi)
            if key in p_by:
                p_by[key] = p_val
            else:
                p_ins.append((pos[klo], key, p_val))
        # New keys enter the dicts in first-booking order, matching the
        # reference's insertion sequence.
        for ins, by in ((e_ins, e_by), (t_ins, t_by), (p_ins, p_by)):
            if ins:
                ins.sort()
                for _, key, val in ins:
                    by[key] = val

    def _add_seq(self, start: float, terms_l, terms, lo: int,
                 hi: int) -> float:
        """``start`` plus ``terms[lo:hi]``, added left to right.  Few terms
        take the scalar adds (they beat numpy call overhead); more take a
        ``np.add.accumulate`` seeded with ``start`` — the same sequential
        IEEE-754 adds (not ``sum()``, whose compensated summation would
        not be bit-equal)."""
        if terms_l is not None and hi - lo <= 48:
            for x in terms_l[lo:hi]:
                start = start + x
            return start
        kb = self.kbuf[:hi - lo + 1]
        kb[0] = start
        kb[1:] = terms[lo:hi]
        np.add.accumulate(kb, out=kb)
        return float(kb[-1])

    # -- reboot -------------------------------------------------------------

    def recharge(self) -> bool:
        """``EnergyHarvester.recharge()``, step-batched; ``False`` when the
        timeout aborts it (``charge_time`` then stays as it was).

        Step clocks and waits are ``np.cumsum`` chains and step charges
        one ``energy_batch`` call per block of steps.  Away from the
        timeout only nonzero-charge steps move ``v`` (a zero charge
        leaves it bit-unchanged), so the exit walk visits those alone;
        the reference first observes ``v >= v_on`` at the step *after*
        the one that crossed it.  A test-free prefix runs first: the
        chain is monotone and tracks the charge prefix sum to a few ulps
        per step, so while ``v**2 + cum_charge`` stays a relative ``1e-9``
        below ``v_on**2`` (orders of magnitude above the drift) no step
        can cross ``v_on`` — nor, since ``v_on <= v_max``, reach the
        ``v_max`` clamp.  Blocks that can reach the timeout take every
        step with both exit tests.
        """
        v = self.v
        clock = self.clock
        v_on = self.v_on
        v_max = self.v_max
        step = self.step
        timeout_s = self.timeout_s
        sqrt = math.sqrt
        waited = 0.0
        rblock = 512
        while v < v_on:
            # Each block covers the steps the trace needs to deliver the
            # charge still missing (plus rounding slack), when it can say;
            # otherwise blocks grow geometrically.
            ahead = self.harvest_time(
                clock, self.half_c * (v_on * v_on - v * v) / self.eff)
            if ahead is None:
                B = rblock
                if rblock < 16384:
                    rblock = rblock * 4
            elif ahead < 65536 * step:
                B = int(ahead / step) + 4
            else:
                B = 65536
            to_timeout = int((timeout_s - waited) / step) + 2
            if B > to_timeout:
                B = to_timeout
            seg = np.empty(B + 1)
            seg[0] = clock
            seg[1:] = step
            clocks = np.cumsum(seg)
            seg[0] = waited
            waiteds = np.cumsum(seg)
            fill = self.step_fill
            if fill is None or fill.size < B:
                fill = self.step_fill = np.full(max(B, 4096), step)
            h = self.energy_batch(clocks[:B], fill[:B]) * self.eff
            chg_np = (2.0 * h) / self.cap_f
            chg = chg_np.tolist()
            if float(waiteds[B - 1]) < timeout_s:
                # No step in this block can reach the timeout.  Clocks and
                # waits are read at the exit step alone, so the arrays are
                # indexed directly instead of exported wholesale.
                nz_np = np.nonzero(chg_np)[0]
                kf = int(np.cumsum(chg_np).searchsorted(
                    v_on * v_on * (1.0 - 1e-9) - v * v))
                pos = int(nz_np.searchsorted(kf)) if kf > 0 else 0
                nz = nz_np.tolist()
                for k in nz[:pos]:
                    v = sqrt(v ** 2 + chg[k])
                k1 = B
                for k in nz[pos:]:
                    root = sqrt(v ** 2 + chg[k])
                    v = root if root < v_max else v_max
                    if v >= v_on:
                        k1 = k + 1
                        break
                clock = float(clocks[k1])
                waited = float(waiteds[k1])
                continue
            clocks_l = clocks.tolist()
            waiteds_l = waiteds.tolist()
            for k in range(B):
                if v >= v_on:
                    break
                if waiteds_l[k] >= timeout_s:
                    self.v = v
                    self.clock = clocks_l[k]
                    return False
                root = sqrt(v ** 2 + chg[k])
                v = root if root < v_max else v_max
            else:
                k = B
            clock = clocks_l[k]
            waited = waiteds_l[k]
        self.v = v
        self.clock = clock
        self.charge_time = self.charge_time + waited
        return True

    # -- finalize -----------------------------------------------------------

    def write_back(self, supply: EnergyHarvester, meter: EnergyMeter,
                   monitor: Optional[VoltageMonitor]) -> None:
        """Hand the state back to the simulator objects, leaving them as
        the reference run would (meter keys keep their dict order)."""
        supply.capacitor.voltage = self.v
        supply.clock_s = self.clock
        supply.failures = self.failures
        supply.charge_time_s = self.charge_time
        if monitor is not None:
            monitor.warnings = self.warnings
        for key, val in self.e_by.items():
            meter.energy_j[key] = val
        for key, val in self.t_by.items():
            meter.time_s[key] = val
        for key, val in self.p_by.items():
            meter.purpose_energy_j[key] = val


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
        device: Device,
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
        #: This machine's copy of each long continuous series (the head
        #: slot it writes) plus its cumsum out-buffer, by series tag.
        self._own_series: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

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

    def replay_program(self) -> Optional[CompiledProgram]:
        """The program a run replays now, or ``None`` while runs go to
        the reference machine (see :meth:`_needs_fallback`)."""
        return None if self._needs_fallback() else self.program

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
        reference machine.
        """
        device = self.device
        if type(device) is not Device or type(device.meter) is not EnergyMeter:
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

    def _series_total(self, tag: str, series: np.ndarray,
                      head: float) -> float:
        """``head`` plus ``series[1:]``, accumulated left to right.

        Short series (small programs like BASE/SONIC) run faster through
        a plain Python loop than through a ``np.cumsum`` call — and the
        loop *is* the sequential definition of cumsum, so the result is
        bit-identical either way.  (Not ``sum()``: CPython 3.12's builtin
        uses compensated summation, which is *better* than sequential
        adds and therefore not bit-equal to the reference.)  A long
        series is cumsummed from this machine's copy, whose head slot
        takes ``head``; the shared program is never written.
        """
        n = series.shape[0] - 1
        if n <= 64:
            terms_l = self._program._terms_l
            terms = terms_l.get(tag)
            if terms is None:
                terms = terms_l[tag] = series[1:].tolist()
            total = head
            for term in terms:
                total = total + term
            return total
        own = self._own_series.get(tag)
        if own is None:
            own = self._own_series[tag] = (series.copy(),
                                           np.empty_like(series))
        copy, out = own
        copy[0] = head
        np.cumsum(copy, out=out)
        return float(out[-1])

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
                "e:" + key, p._energy_series[key], e_start.get(key, 0.0)
            )
            new_t[key] = series_total(
                "t:" + key, p._time_series[key], t_start.get(key, 0.0)
            )
        for key in p.purpose_keys:
            new_p[key] = series_total(
                "p:" + key, p._purpose_series[key], p_start.get(key, 0.0)
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
        """Exact replay of a harvested run, phase by phase (see
        :class:`_Replay` for the phases and the proofs they rely on).

        This is the reference's ``run`` loop: run from the cursor until
        the program completes or browns out; after a brown-out count the
        reboot, check the reboot and stall limits, recharge, restore, and
        resume from the durable position.
        """
        p = self._program
        device = self.device
        supply = device.supply
        meter = device.meter
        monitor = self.monitor
        r = _Replay(p, supply, meter, monitor)
        clock_start = r.clock
        charge_start = r.charge_time
        # Observability baselines (event counts publish as deltas at run
        # end; the replay arithmetic is untouched).
        _rec = _obs.ENABLED
        failures0 = r.failures
        warnings0 = r.warnings
        n_atoms = p.n_atoms
        divisible_l = p.divisible
        executed_cycles = 0.0
        reboots = 0
        stall = 0
        n_restores = 0
        last_durable = (-1, -1)
        dnf_reason = ""
        completed = False

        while True:
            # === the reference's _run_from(atoms, cursor, durable) ===
            r.sub_exec = 0.0
            while r.cursor_atom < n_atoms:
                ca = r.cursor_atom
                if not divisible_l[ca]:
                    if not r.span(ca):
                        break
                    continue
                # FLEX on-demand snapshot before a loop atom's work.
                if (r.snapshot_on and r.v <= r.v_warn
                        and (r.durable_atom, r.durable_it) < (ca, r.cursor_it)
                        and not r.checkpoint(ca, r.cursor_it)):
                    break
                if not r.divisible(ca):
                    break
            else:
                executed_cycles = executed_cycles + r.sub_exec
                completed = True
                break

            # === the reference's PowerFailureError handler ===
            reboots += 1
            device.on_power_failure()
            if reboots >= self.max_reboots:
                dnf_reason = f"exceeded max_reboots={self.max_reboots}"
                break
            durable = (r.durable_atom, r.durable_it)
            if durable == last_durable:
                stall += 1
                if stall >= self.stall_limit:
                    dnf_reason = (
                        f"no durable progress across {stall} power cycles"
                    )
                    break
            else:
                stall = 0
            last_durable = durable
            if not r.recharge():
                dnf_reason = (
                    f"supply delivered too little energy in "
                    f"{supply.charge_timeout_s} s to reach v_on"
                )
                break
            restore = self.runtime.restore_words()
            if restore:
                if not r.restore(restore):
                    continue  # pathological: failed during restore
                n_restores += 1
            r.cursor_atom, r.cursor_it = durable

        # === finalize: meter deltas, write-back, the RunResult ===
        diff_e, diff_t, diff_p = (
            self._diff(old, new, [k for k in new if k not in old])
            for old, new in ((meter.energy_j, r.e_by), (meter.time_s, r.t_by),
                             (meter.purpose_energy_j, r.p_by)))
        r.write_back(supply, meter, monitor)
        if _rec:
            self._record_machine_events(
                completed, reboots, n_restores,
                r.failures - failures0, r.warnings - warnings0,
            )
        logits, pred, needs = self._finish_logits(x, completed, defer_logits)
        result = RunResult(
            runtime=self.runtime.name,
            completed=completed,
            logits=logits,
            predicted_class=pred,
            wall_time_s=r.clock - clock_start,
            active_time_s=sum(diff_t.values()),
            charge_time_s=r.charge_time - charge_start,
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
    device: Device,
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
