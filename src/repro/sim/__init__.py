"""Intermittent-execution simulator: atoms, machines, results.

Two interchangeable engines execute atom programs: the stepwise
reference :class:`IntermittentMachine` and the precompiled
:class:`~repro.sim.fastsim.FastMachine` (``engine="fast"``), which is
bit-identical but replays costs from vectorized tables.  Use
:func:`make_machine` (or the ``engine=`` flag on
:class:`SensingSession` / :class:`~repro.fleet.runner.FleetRunner`) to
pick one.
"""

from repro.sim.atoms import Atom, total_cycles, validate_program
from repro.sim.fastsim import (
    ENGINES,
    CompiledProgram,
    FastMachine,
    ProgramCache,
    compile_program,
    make_machine,
)
from repro.sim.machine import IntermittentMachine
from repro.sim.results import RunResult
from repro.sim.runtime import InferenceRuntime
from repro.sim.session import SensingSession, SessionStats

__all__ = [
    "Atom",
    "CompiledProgram",
    "ENGINES",
    "FastMachine",
    "InferenceRuntime",
    "IntermittentMachine",
    "ProgramCache",
    "RunResult",
    "SensingSession",
    "SessionStats",
    "compile_program",
    "make_machine",
    "total_cycles",
    "validate_program",
]
