"""Shared fixtures for the on-demand ``bench_*`` pytest modules.

The ablation, gate-energy and mitigation modules each run one study,
assert its claim, print its table and write a CSV under
``artifacts/results/``.  None of them times anything: wall-clock
performance is measured by ``perfbench/`` alone.  The paper's figures
and tables are registry entries instead (``repro run fig4a --out
fig4a.json``); ``bench_paper_claims.py`` checks their paper-scale
claims.  Run them all with::

    PYTHONPATH=src python -m pytest benchmarks/bench_*.py -q

Trained models come from the weight cache (``repro.experiments.common``);
the first run trains them (~15 minutes for all nine zoo models), later
runs load instantly.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.data import Dataset
from repro.experiments.common import get_mnist, trained_lenet

RESULTS_DIR = Path(__file__).resolve().parent.parent / "artifacts" / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def lenet():
    """The trained binary LeNet of the Fig. 4 experiments."""
    return trained_lenet()


@pytest.fixture(scope="session")
def mnist_test() -> Dataset:
    _, test = get_mnist()
    return test
