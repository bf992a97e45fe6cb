"""Smoke runs of the examples: each must exit 0 and print something.

Every example runs as its own process from the repo root with
``PYTHONPATH=src``, as its docstring tells a user to.  Each takes about
a second once the LeNet weights are cached.  ``model_resilience_zoo``
is left out: it trains the nine zoo models and takes minutes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

EXAMPLES = ("quickstart", "device_level_vs_flim", "fault_vector_workflow",
            "layer_resilience_mnist", "fault_mitigation",
            "lifetime_reliability")


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name):
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
