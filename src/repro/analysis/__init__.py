"""Result handling: metrics, ASCII plotting, CSV export, runtime accounting."""

from .metrics import (accuracy, accuracy_drop_curve, critical_x, degradation,
                      top_k_accuracy)
from .plotting import ascii_plot, markdown_table, write_csv
from .runtime import (RuntimeSample, extrapolate, measure,
                      measure_interleaved, speedup_table)

__all__ = [
    "accuracy", "top_k_accuracy", "degradation", "critical_x",
    "accuracy_drop_curve",
    "ascii_plot", "write_csv", "markdown_table",
    "RuntimeSample", "measure", "measure_interleaved", "extrapolate",
    "speedup_table",
]
