"""Plain-text tables for experiment output (benchmarks print these)."""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import ConfigurationError


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render an aligned ASCII table.

    Columns whose every cell is a number (``int``/``float``, not
    ``bool``) are right-aligned, paper-style; everything else — including
    pre-formatted numeric strings — stays left-aligned.
    """
    if not headers:
        raise ConfigurationError("table needs headers")
    str_rows: List[List[str]] = [[_fmt(c) for c in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row width {len(row)} != header width {len(headers)}"
            )
    numeric = [
        bool(rows) and all(_is_number(row[i]) for row in rows)
        for i in range(len(headers))
    ]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)

    def align(cell: str, i: int) -> str:
        return cell.rjust(widths[i]) if numeric[i] else cell.ljust(widths[i])

    out = []
    if title:
        out.append(title)
    out.append(" | ".join(align(h, i) for i, h in enumerate(headers)))
    out.append(sep)
    for row in str_rows:
        out.append(" | ".join(align(c, i) for i, c in enumerate(row)))
    return "\n".join(out)


def _is_number(value: object) -> bool:
    import numpy as np

    return isinstance(
        value, (int, float, np.integer, np.floating)
    ) and not isinstance(value, (bool, np.bool_))


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def ratio(value: float, reference: float) -> str:
    """``value/reference`` rendered as an 'N.NNx' factor."""
    if reference == 0:
        return "inf"
    return f"{value / reference:.2f}x"


def ascii_voltage_plot(samples) -> str:
    """Render a (time, voltage) log as a 72x10 ASCII chart of 1.6-3.7 V.

    Used with :meth:`repro.power.EnergyHarvester.enable_logging` to
    visualize the capacitor's charge/discharge cycles around power
    failures.
    """
    if not samples:
        raise ConfigurationError("no voltage samples to plot")
    width, height, v_lo, v_hi = 72, 10, 1.6, 3.7
    t0 = samples[0][0]
    t1 = samples[-1][0]
    span = max(t1 - t0, 1e-9)
    # Downsample to one voltage per column (mean of samples in the bin).
    cols: List[List[float]] = [[] for _ in range(width)]
    for t, v in samples:
        col = min(width - 1, int((t - t0) / span * width))
        cols[col].append(v)
    levels = []
    prev = samples[0][1]
    for bucket in cols:
        if bucket:
            prev = sum(bucket) / len(bucket)
        levels.append(prev)
    grid = [[" "] * width for _ in range(height)]
    for x, v in enumerate(levels):
        frac = (min(max(v, v_lo), v_hi) - v_lo) / (v_hi - v_lo)
        y = height - 1 - int(round(frac * (height - 1)))
        grid[y][x] = "*"
    lines = [f"{v_hi:4.1f}V |" + "".join(grid[0])]
    for row in grid[1:-1]:
        lines.append("      |" + "".join(row))
    lines.append(f"{v_lo:4.1f}V |" + "".join(grid[-1]))
    lines.append("      +" + "-" * width)
    lines.append(f"       t = {t0 * 1e3:.0f} .. {t1 * 1e3:.0f} ms")
    return "\n".join(lines)
