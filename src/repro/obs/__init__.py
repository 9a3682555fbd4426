"""Unified telemetry: counters, gauges, duration histograms, and spans.

``repro.obs`` is the diagnostic layer under every hot path — the kernel
plan caches, the fastsim replay engine, sensing sessions, the fleet
runner, and the durable result store all report into one process-wide
registry (:mod:`repro.obs.metrics`) and one span tracer
(:mod:`repro.obs.spans`).  Three contracts hold everything together:

**Zero overhead when disabled.**  Observability is off by default.
Every instrumentation site gates on the module-level
:data:`metrics.ENABLED` flag *before doing any work*, so a disabled
program pays one attribute load per site — nothing is formatted, timed,
or allocated.  ``benchmarks/bench_obs_overhead.py`` asserts the
disabled cost is unmeasurable and the enabled cost stays within budget
on a harvested session.

**Bit-identity.**  Instrumentation only ever *observes* simulation
state (event-count deltas at run boundaries, wall-clock around phases);
it never touches simulated arithmetic or operation order.  Every
simulation output is bit-identical with observability enabled vs
disabled, on both engines — asserted by ``tests/test_obs.py``.

**One cross-process merge rule.**  Every child process (fleet pool
workers, Table II's worker, serve workers) ships a metrics delta with
each reply (see :mod:`repro.procs`), and the parent folds it in on
arrival with :func:`absorb`.  Counters and durations are integers
(nanoseconds for time), so totals are exact and do not depend on
scheduling; a gauge takes the last value absorbed.

Typical use::

    from repro import obs
    obs.enable()
    run = run_study("fig7", engine="fast")
    print(obs.render_snapshot(run.obs))

or from the shell: ``repro run fig7 --engine fast --metrics m.json
--trace t.json`` then ``repro stats m.json`` (the trace opens in
Perfetto / ``chrome://tracing``).
"""

from repro.obs.metrics import (
    absorb,
    count,
    disable,
    enable,
    gauge,
    observe_ns,
    reset_metrics,
    snapshot,
)
from repro.obs.snapshot import SNAPSHOT_SCHEMA, validate_snapshot
from repro.obs.spans import events, export_chrome_trace, record, span
from repro.obs.render import render_snapshot

__all__ = [
    "SNAPSHOT_SCHEMA",
    "absorb",
    "count",
    "disable",
    "enable",
    "events",
    "export_chrome_trace",
    "gauge",
    "observe_ns",
    "record",
    "render_snapshot",
    "reset",
    "reset_metrics",
    "snapshot",
    "span",
    "validate_snapshot",
]


def reset() -> None:
    """Clear the metrics registry *and* the span event buffer."""
    from repro.obs import spans

    reset_metrics()
    spans.clear()
