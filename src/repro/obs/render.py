"""Human rendering of snapshots — what ``repro stats`` prints.

One aligned table per populated section, built on the same
:func:`repro.experiments.reporting.format_table` every paper artifact
uses.  Durations render as count / total / mean / min / max with
millisecond-or-microsecond units chosen per row.
"""

from __future__ import annotations

from repro.obs.snapshot import validate_snapshot


def _fmt_ns(ns: int) -> str:
    if ns >= 1_000_000_000:
        return f"{ns / 1e9:.3f} s"
    if ns >= 1_000_000:
        return f"{ns / 1e6:.3f} ms"
    if ns >= 1_000:
        return f"{ns / 1e3:.1f} us"
    return f"{ns} ns"


def render_snapshot(snap: dict) -> str:
    """An aligned, sectioned text rendering of one snapshot."""
    from repro.experiments.reporting import format_table

    validate_snapshot(snap)
    parts = []
    counters = snap["counters"]
    if counters:
        parts.append(format_table(
            ["counter", "count"],
            [(name, counters[name]) for name in sorted(counters)],
            title="Counters",
        ))
    gauges = snap["gauges"]
    if gauges:
        parts.append(format_table(
            ["gauge", "value"],
            [(name, f"{gauges[name]:g}") for name in sorted(gauges)],
            title="Gauges",
        ))
    durations = snap["durations"]
    if durations:
        rows = []
        for name in sorted(durations):
            d = durations[name]
            mean = d["total_ns"] // max(d["count"], 1)
            rows.append((
                name, d["count"], _fmt_ns(d["total_ns"]),
                _fmt_ns(mean), _fmt_ns(d["min_ns"]), _fmt_ns(d["max_ns"]),
            ))
        parts.append(format_table(
            ["duration", "count", "total", "mean", "min", "max"],
            rows,
            title="Durations",
        ))
    if not parts:
        return (f"empty snapshot (pid {snap['pid']}) — "
                "was observability enabled?")
    return "\n\n".join(parts)
