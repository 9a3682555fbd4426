"""Lightweight tracing spans, exportable as Chrome trace-event JSON.

A span times one named region of wall clock::

    from repro.obs import spans as _spans
    with _spans.span("fleet.scenario", scenario=name):
        ...

While disabled, :func:`span` returns a shared no-op singleton — the
whole cost is one flag check and one call.  While enabled, closing a
span feeds the duration into the metrics registry (as the histogram
``span.<name>``, so span timings merge across processes like any other
duration) and appends a completed event to the in-process trace
buffer, exportable with :func:`export_chrome_trace` and viewable in
Perfetto or ``chrome://tracing``.

Spans mark *coarse* phases — sessions, batched logits, plan builds,
kernel batch executes, shard flushes, fleet stages.  Per-event work
inside the simulators' storm loops (each checkpoint, restore, or
brown-out) is counted, never timed: a timer pair per simulated event
would blow the overhead contract, and the counts merged with the phase
spans already locate the time.

For pre-timed regions (a site that cannot use ``with`` without
restructuring), :func:`record` closes a region opened at an explicit
``time.perf_counter_ns()`` origin.

The trace buffer is process-local.  Worker spans still *aggregate*
(their ``span.*`` histograms travel in worker metrics deltas), but their
individual events are not shipped across the process boundary — an
exported trace shows the parent process's timeline.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, List, Tuple

from repro.obs import metrics as _metrics

#: Completed events: (name, t0_ns, dur_ns, thread_ident, attrs).
_EVENTS: List[Tuple[str, int, int, int, Dict[str, Any]]] = []

#: Hard cap on buffered events; overflow increments ``obs.trace.dropped``.
MAX_EVENTS = 200_000


class _NullSpan:
    """Shared do-nothing span returned while observability is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("name", "attrs", "t0")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.t0 = time.perf_counter_ns()

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc) -> bool:
        _finish(self.name, self.t0, self.attrs)
        return False


def span(name: str, **attrs):
    """A context manager timing ``name`` (no-op while disabled)."""
    if not _metrics.ENABLED:
        return _NULL_SPAN
    return _Span(name, attrs)


def record(name: str, t0_ns: int, **attrs) -> None:
    """Close a region that was opened at ``t0_ns`` (perf_counter_ns)."""
    if not _metrics.ENABLED:
        return
    _finish(name, t0_ns, attrs)


def _finish(name: str, t0: int, attrs: Dict[str, Any]) -> None:
    dur = time.perf_counter_ns() - t0
    _metrics.observe_ns("span." + name, dur)
    if len(_EVENTS) < MAX_EVENTS:
        _EVENTS.append((name, t0, dur, threading.get_ident(), attrs))
    else:
        _metrics.count("obs.trace.dropped")


def events() -> List[Tuple[str, int, int, int, Dict[str, Any]]]:
    """A copy of the buffered events (tests and ad-hoc inspection)."""
    return list(_EVENTS)


def clear() -> None:
    """Drop every buffered event."""
    _EVENTS.clear()


def export_chrome_trace(fh) -> int:
    """Write the buffered events as Chrome trace-event JSON to ``fh``.

    Complete events (``"ph": "X"``) with microsecond timestamps
    relative to the earliest buffered event; span attributes land in
    ``args``.  Returns the number of events written.  Load the file in
    Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
    """
    import os

    pid = os.getpid()
    base = min((e[1] for e in _EVENTS), default=0)
    tids: Dict[int, int] = {}
    out = []
    for name, t0, dur, tid, attrs in _EVENTS:
        tids.setdefault(tid, len(tids))
        event: Dict[str, Any] = {
            "name": name,
            "ph": "X",
            "pid": pid,
            "tid": tids[tid],
            "ts": (t0 - base) / 1000.0,
            "dur": dur / 1000.0,
        }
        if attrs:
            event["args"] = {
                k: (v if isinstance(v, (int, float, str, bool)) else str(v))
                for k, v in attrs.items()
            }
        out.append(event)
    json.dump({"traceEvents": out, "displayTimeUnit": "ms"}, fh)
    fh.write("\n")
    return len(out)
