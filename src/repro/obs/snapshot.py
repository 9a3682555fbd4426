"""Snapshot schema and validation.

A snapshot is the JSON-serializable value a process exports from its
registry (:func:`repro.obs.metrics.snapshot`), the ``--metrics`` file
format, and the delta a child process ships with each reply (see
:mod:`repro.procs`)::

    {
      "schema": 1,
      "pid": 12345,          # producing process
      "counters": {"machine.reboots": 17, ...},     # ints
      "gauges": {"kernels.fft_plans": 2.0, ...},    # floats
      "durations": {
        "span.session.sense": {
          "count": 4, "total_ns": 81234567,
          "min_ns": 1201, "max_ns": 40012345,
          "buckets": {"16777216": 3, "67108864": 1}
        }, ...
      }
    }

Counters and every duration field are integers, so folding deltas
(:func:`repro.obs.metrics.absorb`) is exact and independent of arrival
order; a gauge takes the last value absorbed.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

SNAPSHOT_SCHEMA = 1

_DURATION_FIELDS = ("count", "total_ns", "min_ns", "max_ns")


def empty_snapshot() -> dict:
    """An all-empty schema-1 snapshot."""
    return {
        "schema": SNAPSHOT_SCHEMA,
        "pid": 0,
        "counters": {},
        "gauges": {},
        "durations": {},
    }


def validate_snapshot(snap: object) -> dict:
    """Check ``snap`` against the schema; returns it (for chaining)."""
    if not isinstance(snap, dict):
        raise ConfigurationError(
            f"snapshot must be a dict, got {type(snap).__name__}"
        )
    if snap.get("schema") != SNAPSHOT_SCHEMA:
        raise ConfigurationError(
            f"unknown snapshot schema {snap.get('schema')!r} "
            f"(this build reads schema {SNAPSHOT_SCHEMA})"
        )
    if not isinstance(snap.get("pid"), int):
        raise ConfigurationError("snapshot 'pid' must be an int")
    for section, kind in (("counters", int), ("gauges", (int, float))):
        table = snap.get(section)
        if not isinstance(table, dict):
            raise ConfigurationError(f"snapshot {section!r} must be a dict")
        for key, val in table.items():
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"snapshot {section} key {key!r} must be a string"
                )
            if not isinstance(val, kind) or isinstance(val, bool):
                raise ConfigurationError(
                    f"snapshot {section}[{key!r}] has non-numeric "
                    f"value {val!r}"
                )
    durations = snap.get("durations")
    if not isinstance(durations, dict):
        raise ConfigurationError("snapshot 'durations' must be a dict")
    for name, d in durations.items():
        if not isinstance(d, dict):
            raise ConfigurationError(
                f"snapshot duration {name!r} must be a dict"
            )
        for field in _DURATION_FIELDS:
            if not isinstance(d.get(field), int):
                raise ConfigurationError(
                    f"snapshot duration {name!r} needs integer {field!r}"
                )
        buckets = d.get("buckets", {})
        if not isinstance(buckets, dict):
            raise ConfigurationError(
                f"snapshot duration {name!r} buckets must be a dict"
            )
        for b, n in buckets.items():
            if not isinstance(b, str) or not isinstance(n, int):
                raise ConfigurationError(
                    f"snapshot duration {name!r} has a malformed bucket "
                    f"({b!r}: {n!r})"
                )
    return snap
