"""Experiment runners for the paper's Fig. 5 (model resilience).

Nine BNN architectures, faults injected into every mapped layer, hundred
repetitions in the paper (configurable here).  The sweep ranges follow the
paper's axes: bit-flips 0-20%, stuck-at 0-2%, dynamic periods 0-5.
"""

from __future__ import annotations

from ..core import FaultCampaign, SweepResult
from ..data import Dataset
from ..models.zoo import model_names
from .common import get_imagenet, trained_zoo_model

__all__ = ["BITFLIP_RATES", "STUCKAT_RATES", "DYNAMIC_PERIODS",
           "model_sweep"]

#: Fig. 5a sweeps bit-flips over 0-20%
BITFLIP_RATES = (0.0, 0.025, 0.05, 0.10, 0.15, 0.20)
#: Fig. 5b sweeps stuck-at over 0-2% — an order of magnitude tighter
STUCKAT_RATES = (0.0, 0.0025, 0.005, 0.01, 0.015, 0.02)
#: Fig. 5c sweeps the dynamic sensitization period 0-5
DYNAMIC_PERIODS = (0, 1, 2, 3, 4, 5)


def model_sweep(spec_factory, xs, models: list[str] | None = None,
                repeats: int = 5, rows: int = 40, cols: int = 10,
                seed: int = 0, test: Dataset | None = None,
                progress_for=None, journal_for=None,
                **engine) -> dict[str, SweepResult]:
    """Run one sweep on every zoo model; returns label -> SweepResult.

    ``engine`` holds :class:`~repro.core.FaultCampaign`'s options
    (``executor``, ``n_jobs``, ``backend``, ``cache_bytes``, ``policy``,
    ``on_event``, ...) and passes straight through, so the
    nine-architecture grids can run on the pool executor and the packed
    backend — all bit-identical to serial/float.
    ``progress_for(series)`` and ``journal_for(series)`` give each model
    curve its own ``progress(done, total, cell)`` callback and journal
    path (each model is its own campaign grid).
    """
    if models is None:
        models = model_names()
    if test is None:
        _, test = get_imagenet()
    results: dict[str, SweepResult] = {}
    for name in models:
        model = trained_zoo_model(name)
        journal = journal_for(name) if journal_for else None
        with FaultCampaign(model, test.x, test.y, rows=rows, cols=cols,
                           **engine) as campaign:
            results[name] = campaign.run(
                spec_factory, xs, repeats=repeats, seed=seed, label=name,
                journal=journal,
                progress=progress_for(name) if progress_for else None)
    return results
