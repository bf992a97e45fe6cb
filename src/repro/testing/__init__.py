"""Test-support utilities shipped with the package.

:mod:`repro.testing.chaos` — controlled failure injection into the
campaign executors, used by ``tests/test_chaos.py`` to prove the
engine's recovery paths converge to the serial ground truth.
"""

from .chaos import (ChaosError, ChaosSharedMemoryExecutor, ChaosSpec,
                    truncate_last_line)

__all__ = ["ChaosSpec", "ChaosError", "ChaosSharedMemoryExecutor",
           "truncate_last_line"]
