"""Experiment runners for the paper's tables.

Table I records the experimental setup (we capture the host this
reproduction actually ran on); Table II the characteristics of the nine
BNN models (computed from our scaled implementations, printed next to the
paper's reference values).
"""

from __future__ import annotations

import os
import platform
import sys

import numpy as np

from .. import __version__
from ..models import build_model, compute_stats, format_count
from ..models.zoo import MODEL_PAPER_STATS, model_names
from .common import get_imagenet, trained_zoo_model

__all__ = ["table1_setup", "table2_model_stats"]


def _total_ram_gb() -> float | None:
    try:
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) / 1024 / 1024
    except OSError:
        pass
    return None


def table1_setup() -> list[tuple[str, str]]:
    """The adopted experimental setup, like the paper's Table I.

    The paper ran on a Ryzen 7 5800X with an RTX 3080 Ti; this
    reproduction is CPU-only numpy, so the software rows list the numpy
    stack instead of CUDA/TensorFlow.
    """
    ram = _total_ram_gb()
    rows = [
        ("CPU", platform.processor() or platform.machine()),
        ("CPU cores", str(os.cpu_count())),
        ("RAM", f"{ram:.0f} GB" if ram else "unknown"),
        ("GPU", "none (CPU-only reproduction)"),
        ("OS", platform.platform()),
        ("Python", sys.version.split()[0]),
        ("numpy", np.__version__),
        ("FLIM implementation", f"repro {__version__} (numpy fast path)"),
    ]
    return rows


def table2_model_stats(models: list[str] | None = None,
                       measure_accuracy: bool = True) -> list[dict[str, object]]:
    """Table II: per-model Top-1, size, params, MACs, binarized %.

    Every row carries both our measured values (scaled models on the
    synthetic task) and the paper's reference values for comparison.
    Only Top-1 needs trained weights: without ``measure_accuracy`` the
    statistics come from the untrained architectures and nothing trains.
    """
    if models is None:
        models = model_names()
    if measure_accuracy:
        _, test = get_imagenet()
    rows = []
    for name in models:
        model = (trained_zoo_model(name) if measure_accuracy
                 else build_model(name))
        stats = compute_stats(model)
        paper_top1, paper_size, paper_params, paper_macs, paper_bin = \
            MODEL_PAPER_STATS[name]
        row = {
            "model": name,
            "top1_pct": (round(100 * model.evaluate(test.x, test.y), 1)
                         if measure_accuracy else float("nan")),
            "size_mb": round(stats.size_mb, 4),
            "params": format_count(stats.params),
            "macs": format_count(stats.macs),
            "binarized_pct": round(stats.binarized_percent, 2),
            "paper_top1_pct": paper_top1,
            "paper_size_mb": paper_size,
            "paper_params": paper_params,
            "paper_macs": paper_macs,
            "paper_binarized_pct": paper_bin,
        }
        rows.append(row)
    return rows
