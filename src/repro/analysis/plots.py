"""Dependency-free ASCII line charts, tables, and CSV export.

The benchmark harness runs in terminals and CI, so every figure renderer
prints an ASCII chart: multiple named series over a shared x-axis, one
glyph per series, with automatic y-scaling.  CSV export gives the exact
numbers for external plotting.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from pathlib import Path

from repro.simulation.probes import SeriesPoint

__all__ = ["ascii_chart", "render_table", "write_csv", "sparkline"]

#: glyphs assigned to successive series in a chart
GLYPHS = "*o+x#@%&"


def ascii_chart(
    named_series: dict[str, Sequence[SeriesPoint]],
    title: str = "",
    width: int = 72,
    height: int = 18,
    y_label: str = "",
    x_label: str = "hours",
) -> str:
    """Render named series as a multi-line ASCII chart.

    Series are step-sampled onto ``width`` columns between the minimum and
    maximum hour across all series; values are binned onto ``height`` rows.
    Later-listed series draw over earlier ones where they collide.
    """
    series_items = [(name, list(s)) for name, s in named_series.items() if s]
    if not series_items:
        return f"{title}\n(no data)"

    all_points = [p for _name, s in series_items for p in s]
    x_min = min(p.hour for p in all_points)
    x_max = max(p.hour for p in all_points)
    y_min = min(p.value for p in all_points)
    y_max = max(p.value for p in all_points)
    if math.isclose(x_min, x_max):
        x_max = x_min + 1.0
    if math.isclose(y_min, y_max):
        y_max = y_min + 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (_name, series) in enumerate(series_items):
        glyph = GLYPHS[index % len(GLYPHS)]
        cursor = 0
        last_value: float | None = None
        for column in range(width):
            hour = x_min + (x_max - x_min) * column / (width - 1)
            while cursor < len(series) and series[cursor].hour <= hour:
                last_value = series[cursor].value
                cursor += 1
            if last_value is None:
                continue
            fraction = (last_value - y_min) / (y_max - y_min)
            row = height - 1 - round(fraction * (height - 1))
            grid[row][column] = glyph

    lines = []
    if title:
        lines.append(title)
    top_label = f"{y_max:,.6g}"
    bottom_label = f"{y_min:,.6g}"
    margin = max(len(top_label), len(bottom_label)) + 1
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = top_label.rjust(margin)
        elif row_index == height - 1:
            prefix = bottom_label.rjust(margin)
        else:
            prefix = " " * margin
        lines.append(f"{prefix}|{''.join(row)}")
    axis = f"{x_min:,.4g}".ljust(width - 8) + f"{x_max:,.4g}".rjust(8)
    lines.append(" " * margin + "+" + "-" * width)
    lines.append(" " * (margin + 1) + axis + f"  ({x_label})")
    legend = "   ".join(
        f"{GLYPHS[i % len(GLYPHS)]} {name}" for i, (name, _s) in enumerate(series_items)
    )
    lines.append(" " * (margin + 1) + legend + (f"   [{y_label}]" if y_label else ""))
    return "\n".join(lines)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """One-line unicode sparkline of a value sequence."""
    if not values:
        return ""
    blocks = "▁▂▃▄▅▆▇█"
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    step = max(1, len(values) // width)
    sampled = [values[i] for i in range(0, len(values), step)]
    return "".join(blocks[int((v - lo) / span * (len(blocks) - 1))] for v in sampled)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render a plain-text table with right-aligned numeric columns."""
    formatted_rows = [
        [f"{cell:.2f}" if isinstance(cell, float) else str(cell) for cell in row]
        for row in rows
    ]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in formatted_rows))
        if formatted_rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in formatted_rows:
        lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def write_csv(
    path: Path | str,
    named_series: dict[str, Sequence[SeriesPoint]],
) -> None:
    """Write named series to a CSV file with an ``hour`` column per series.

    Series may have different sampling; each gets its own (hour, value)
    column pair so nothing is interpolated on disk.
    """
    names = list(named_series)
    columns = [list(named_series[name]) for name in names]
    depth = max((len(c) for c in columns), default=0)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        header: list[str] = []
        for name in names:
            header.extend([f"{name}_hour", f"{name}_value"])
        writer.writerow(header)
        for row_index in range(depth):
            row: list[object] = []
            for column in columns:
                if row_index < len(column):
                    row.extend([column[row_index].hour, column[row_index].value])
                else:
                    row.extend(["", ""])
            writer.writerow(row)
