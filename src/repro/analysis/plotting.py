"""Terminal-friendly result rendering: ASCII plots, CSV and markdown.

The benchmark harness prints the same rows/series the paper's figures
plot; these helpers render them without any plotting dependency.
"""

from __future__ import annotations

import csv

import numpy as np

__all__ = ["ascii_plot", "write_csv", "markdown_table"]

_MARKS = "ox+*#@%&"


def ascii_plot(series: dict[str, tuple], width: int = 64, height: int = 18,
               title: str = "", x_label: str = "x", y_label: str = "y",
               y_range: tuple[float, float] | None = None) -> str:
    """Render labelled (xs, ys) series as an ASCII line chart.

    ``series`` maps label -> (xs, ys).  Each series gets its own marker;
    the legend maps markers back to labels.
    """
    if not series:
        raise ValueError("no series to plot")
    all_x = np.concatenate([np.asarray(xs, dtype=float) for xs, _ in series.values()])
    all_y = np.concatenate([np.asarray(ys, dtype=float) for _, ys in series.values()])
    x_min, x_max = float(all_x.min()), float(all_x.max())
    if y_range is not None:
        y_min, y_max = y_range
    else:
        y_min, y_max = float(all_y.min()), float(all_y.max())
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (label, (xs, ys)) in enumerate(series.items()):
        mark = _MARKS[index % len(_MARKS)]
        for x, y in zip(np.asarray(xs, float), np.asarray(ys, float)):
            col = int(round((x - x_min) / (x_max - x_min) * (width - 1)))
            row = int(round((y - y_min) / (y_max - y_min) * (height - 1)))
            grid[height - 1 - row][col] = mark

    lines = []
    if title:
        lines.append(title)
    top_label = f"{y_max:.3g}"
    bottom_label = f"{y_min:.3g}"
    pad = max(len(top_label), len(bottom_label))
    for r, row in enumerate(grid):
        prefix = top_label.rjust(pad) if r == 0 else (
            bottom_label.rjust(pad) if r == height - 1 else " " * pad)
        lines.append(f"{prefix} |{''.join(row)}|")
    lines.append(" " * pad + f" +{'-' * width}+")
    lines.append(" " * pad + f"  {x_min:<.3g}{x_label:^{max(0, width - 12)}}{x_max:>.3g}")
    legend = "   ".join(f"{_MARKS[i % len(_MARKS)]}={label}"
                        for i, label in enumerate(series))
    lines.append(f"{' ' * pad}  [{y_label}]  {legend}")
    return "\n".join(lines)


def write_csv(path, header: list[str], rows: list[tuple]) -> None:
    """Write experiment rows to CSV (one file per figure/table)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def markdown_table(header: list[str], rows: list[tuple]) -> str:
    """Render rows as a GitHub-flavoured markdown table."""
    def fmt(cell):
        return f"{cell:.4g}" if isinstance(cell, float) else str(cell)

    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(fmt(cell) for cell in row) + " |")
    return "\n".join(lines)
