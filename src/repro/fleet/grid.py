"""Scenario-grid builders: sweep fleets from axis lists, not hand-coding.

In the spirit of declarative constraint/scenario specification, a fleet
study is the cartesian product of a few axes — tasks x runtimes x power
traces x capacitor sizes — and this module turns those axis lists into a
list of :class:`~repro.fleet.scenario.Scenario` specs with stable names
and deterministic per-scenario seeds.  Seeds are derived from the
scenario *name* (CRC32, xor'd with ``base_seed``), so a scenario's stream
does not depend on where it lands in the grid: adding an axis value never
perturbs the other cells.
"""

from __future__ import annotations

import zlib
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.fleet.scenario import Scenario, TraceSpec
from repro.power import CORPUS

#: The fleet-study default supplies: the paper's square wave, a bursty
#: RF-like source, and a slow solar-like sinusoid, all near the testbed's
#: average harvesting power.
DEFAULT_TRACES = (
    TraceSpec("square", 5e-3, 0.05, 0.3),
    TraceSpec("rf", 1.5e-3, 0.06, 0.4),
    TraceSpec("solar", 5e-3, 1.0),
)

#: Intermittence-safe runtimes — the ones a deployment would actually
#: ship (BASE and plain ACE DNF under harvested power; include them
#: explicitly to study failure envelopes).
DEFAULT_RUNTIMES = ("SONIC", "TAILS", "ACE+FLEX")


def corpus_traces(
    names: Optional[Sequence[str]] = None,
    *,
    power_w: float = 0.0,
) -> Tuple[TraceSpec, ...]:
    """Corpus-backed :class:`TraceSpec` axis: one seed-0 cell per name.

    ``names=None`` sweeps the whole registered corpus (sorted order).
    ``power_w > 0`` rescales every entry to that mean power so the axis
    isolates supply *shape* from supply *level*; the default keeps each
    entry's native scale.  Unknown names fail here, before a grid is
    built around them.
    """
    if names is None:
        names = CORPUS.names()
    if not names:
        raise ConfigurationError("corpus_traces needs >= 1 name")
    for name in names:
        CORPUS.entry(name)  # fail fast with the known-names message
    return tuple(
        TraceSpec("corpus", power_w, corpus=name, seed=0) for name in names
    )


def scenario_seed(name: str, base_seed: int = 0) -> int:
    """Deterministic, order-independent seed for a named scenario.

    Masked to 32 bits so any integer ``base_seed`` (including negative
    ones from the CLI) yields a valid ``numpy`` seed.
    """
    return (zlib.crc32(name.encode("utf-8")) ^ base_seed) & 0xFFFFFFFF


def scenario_grid(
    *,
    tasks: Sequence[str] = ("mnist",),
    runtimes: Sequence[str] = DEFAULT_RUNTIMES,
    traces: Sequence[TraceSpec] = DEFAULT_TRACES,
    caps_uf: Sequence[float] = (100.0,),
    n_samples: int = 4,
    base_seed: int = 0,
) -> List[Scenario]:
    """Cartesian sweep over tasks x traces x capacitors x runtimes.

    Scenario names are ``task/trace/capuF/runtime``; every cell gets a
    deterministic seed via :func:`scenario_seed`.  All scenarios of one
    task share a model (one :class:`~repro.fleet.cache.ModelCache` entry).
    """
    if not (tasks and runtimes and traces and caps_uf):
        raise ConfigurationError("every grid axis needs at least one value")
    grid: List[Scenario] = []
    for task in tasks:
        for trace in traces:
            for cap_uf in caps_uf:
                for runtime in runtimes:
                    name = f"{task}/{trace.label()}/{cap_uf:g}uF/{runtime}"
                    grid.append(
                        Scenario(
                            name=name,
                            task=task,
                            runtime=runtime,
                            trace=trace,
                            cap_uf=cap_uf,
                            n_samples=n_samples,
                            seed=scenario_seed(name, base_seed),
                        )
                    )
    return grid


def default_grid(
    *,
    tasks: Sequence[str] = ("mnist",),
    n_samples: int = 4,
    base_seed: int = 0,
    traces: Optional[Sequence[TraceSpec]] = None,
) -> List[Scenario]:
    """The standard fleet study: 3 traces x 2 capacitors x 3 runtimes.

    Per task that is 18 scenarios — diverse enough for distribution
    statistics, small enough to run in seconds.  ``traces`` swaps the
    supply axis (e.g. :func:`corpus_traces` for a corpus-driven fleet)
    while keeping the standard capacitor/runtime axes.
    """
    return scenario_grid(
        tasks=tasks,
        traces=DEFAULT_TRACES if traces is None else traces,
        caps_uf=(100.0, 220.0),
        n_samples=n_samples,
        base_seed=base_seed,
    )
