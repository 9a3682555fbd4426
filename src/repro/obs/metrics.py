"""The process-wide metrics registry: counters, gauges, durations.

State is three plain module-level dicts guarded by :data:`ENABLED`.
Instrumented modules use the gated-call idiom::

    from repro.obs import metrics as _obs
    ...
    if _obs.ENABLED:
        _obs.count("machine.reboots", reboots)

The explicit ``if`` keeps the disabled cost to one module-attribute
load per site (the recording functions re-check, so ungated calls are
merely slower, never wrong).

Representation choices are driven by the cross-process merge rule
(:func:`absorb`):

* counters are Python ints — merging is exact integer addition;
* durations are integer nanoseconds (``time.perf_counter_ns``) in a
  ``[count, total_ns, min_ns, max_ns, {bucket: n}]`` record with
  power-of-two bucket upper bounds, so histogram merge is elementwise
  integer addition plus min/max;
* gauges are floats ("last set value"), and a merged gauge is the last
  value absorbed.

Nothing here imports numpy or any simulation module, so importing the
registry from a hot path costs nothing at module load.
"""

from __future__ import annotations

import os
from typing import Dict, List

from repro.obs.snapshot import SNAPSHOT_SCHEMA

#: Master switch.  Checked (module attribute load) before any work at
#: every instrumentation site; flipped only by :func:`enable`/
#: :func:`disable`.
ENABLED = False

_COUNTERS: Dict[str, int] = {}
_GAUGES: Dict[str, float] = {}
#: name -> [count, total_ns, min_ns, max_ns, buckets]; buckets maps the
#: stringified power-of-two upper bound (ns) to an occurrence count.
_DURATIONS: Dict[str, List] = {}

#: Bucket exponent clamp: 2**10 ns (~1 us) .. 2**40 ns (~18 min).
_BUCKET_MIN_EXP = 10
_BUCKET_MAX_EXP = 40


def enable() -> None:
    """Turn observability on (registry keeps whatever it already holds)."""
    global ENABLED
    ENABLED = True


def disable() -> None:
    """Turn observability off; every instrumentation site goes quiet."""
    global ENABLED
    ENABLED = False


def reset_metrics() -> None:
    """Drop all recorded values (the enabled flag is left as is)."""
    _COUNTERS.clear()
    _GAUGES.clear()
    _DURATIONS.clear()


def count(name: str, n: int = 1) -> None:
    """Add ``n`` to counter ``name`` (no-op while disabled)."""
    if not ENABLED:
        return
    _COUNTERS[name] = _COUNTERS.get(name, 0) + n


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (last write wins in-process)."""
    if not ENABLED:
        return
    _GAUGES[name] = float(value)


def _bucket(ns: int) -> str:
    exp = ns.bit_length()
    if exp < _BUCKET_MIN_EXP:
        exp = _BUCKET_MIN_EXP
    elif exp > _BUCKET_MAX_EXP:
        exp = _BUCKET_MAX_EXP
    return str(1 << exp)


def observe_ns(name: str, ns: int) -> None:
    """Record one duration observation (integer nanoseconds)."""
    if not ENABLED:
        return
    ns = int(ns)
    if ns < 0:
        ns = 0
    h = _DURATIONS.get(name)
    if h is None:
        h = _DURATIONS[name] = [0, 0, ns, ns, {}]
    h[0] += 1
    h[1] += ns
    if ns < h[2]:
        h[2] = ns
    if ns > h[3]:
        h[3] = ns
    b = _bucket(ns)
    h[4][b] = h[4].get(b, 0) + 1


def snapshot() -> dict:
    """A self-describing copy of the registry (see :mod:`.snapshot`).

    ``pid`` identifies the producing process.
    """
    return {
        "schema": SNAPSHOT_SCHEMA,
        "pid": os.getpid(),
        "counters": dict(_COUNTERS),
        "gauges": dict(_GAUGES),
        "durations": {
            name: {
                "count": h[0],
                "total_ns": h[1],
                "min_ns": h[2],
                "max_ns": h[3],
                "buckets": dict(h[4]),
            }
            for name, h in _DURATIONS.items()
        },
    }


def absorb(snap: dict) -> None:
    """Fold a snapshot (a child process's delta) into the live registry.

    The one cross-process merge rule: counter-for-counter integer
    addition, duration histograms merged elementwise (``min``/``max``
    folded), and each gauge set to the absorbed value, as if the child
    had set it here last.  No-op while disabled.
    """
    if not ENABLED:
        return
    for key, val in snap.get("counters", {}).items():
        _COUNTERS[key] = _COUNTERS.get(key, 0) + int(val)
    for key, val in snap.get("gauges", {}).items():
        _GAUGES[key] = float(val)
    for name, d in snap.get("durations", {}).items():
        h = _DURATIONS.get(name)
        if h is None:
            h = _DURATIONS[name] = [0, 0, int(d["min_ns"]), int(d["max_ns"]), {}]
        h[0] += int(d["count"])
        h[1] += int(d["total_ns"])
        if int(d["min_ns"]) < h[2]:
            h[2] = int(d["min_ns"])
        if int(d["max_ns"]) > h[3]:
            h[3] = int(d["max_ns"])
        for b, n in d.get("buckets", {}).items():
            h[4][b] = h[4].get(b, 0) + int(n)
