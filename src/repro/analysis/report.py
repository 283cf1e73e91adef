"""ASCII rendering of regenerated figures.

The harness prints the same rows/series the paper plots; these helpers
format them as aligned tables (and a coarse ASCII chart for quick visual
shape checks in a terminal).
"""

from __future__ import annotations

import math

from repro.analysis.figures import FigureData

__all__ = ["render_table", "render_chart", "render_figure"]


def _format_value(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    return f"{value:.3f}"


def render_table(data: FigureData) -> str:
    """The figure's series as an aligned table, one row per x value."""
    xs = sorted({x for pts in data.series.values() for x, __ in pts})
    names = list(data.series)
    header = [data.x_label[:14]] + names
    rows = [header]
    for x in xs:
        row = [_format_value(x)]
        for name in names:
            value = data.series_value(name, x)
            row.append(_format_value(value) if value is not None else "-")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = [f"{data.figure_id}: {data.title}  [{data.y_label}]"]
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.rjust(width)
                               for cell, width in zip(row, widths)))
        if i == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    for note in data.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def render_chart(data: FigureData) -> str:
    """A coarse 60 x 16 ASCII scatter of the series (log y if the figure
    is)."""
    width, height = 60, 16
    points = [(x, y) for pts in data.series.values() for x, y in pts
              if y > 0 or not data.log_y]
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]

    def ty(value: float) -> float:
        return math.log10(max(value, 1e-9)) if data.log_y else value

    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ty(y) for y in ys), max(ty(y) for y in ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for __ in range(height)]
    markers = "ABCDEFGHIJ"
    legend = []
    for index, (name, pts) in enumerate(data.series.items()):
        marker = markers[index % len(markers)]
        legend.append(f"{marker}={name}")
        for x, y in pts:
            if data.log_y and y <= 0:
                continue
            col = int((x - x_lo) / x_span * (width - 1))
            row = int((ty(y) - y_lo) / y_span * (height - 1))
            grid[height - 1 - row][col] = marker
    lines = [f"{data.figure_id}: {data.title}"]
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append("  " + "  ".join(legend))
    return "\n".join(lines)


def render_figure(data: FigureData, chart: bool = False) -> str:
    """Table plus (optionally) the ASCII chart."""
    out = render_table(data)
    if chart:
        out += "\n\n" + render_chart(data)
    return out
