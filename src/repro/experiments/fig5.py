"""The sweep axes of the paper's Fig. 5 (model resilience).

Nine BNN architectures, faults injected into every mapped layer, hundred
repetitions in the paper (configurable in the :mod:`repro.api` catalog,
which runs the sweeps).  The ranges follow the paper's axes: bit-flips
0-20%, stuck-at 0-2%, dynamic periods 0-5.
"""

from __future__ import annotations

__all__ = ["BITFLIP_RATES", "STUCKAT_RATES", "DYNAMIC_PERIODS"]

#: Fig. 5a sweeps bit-flips over 0-20%
BITFLIP_RATES = (0.0, 0.025, 0.05, 0.10, 0.15, 0.20)
#: Fig. 5b sweeps stuck-at over 0-2% — an order of magnitude tighter
STUCKAT_RATES = (0.0, 0.0025, 0.005, 0.01, 0.015, 0.02)
#: Fig. 5c sweeps the dynamic sensitization period 0-5
DYNAMIC_PERIODS = (0, 1, 2, 3, 4, 5)
