"""Typed events streamed by a :class:`~repro.api.handle.RunHandle`.

One experiment run emits a single ordered stream that every consumer —
CLI progress renderer, journals, benchmarks, tests — reads the same
way:

``RunStarted``
    Emitted once, before any evaluation.
``CellDone``
    One fresh campaign-grid cell finished.  ``done``/``total`` count
    cells *within the named series* (a Fig. 4 layer curve, a Fig. 5
    model, a scenario grid); cells replayed from a resumed journal are
    never re-emitted, matching the engine's ``progress`` contract.
``CheckpointDone``
    Scenario runs only: every cell of one device-age checkpoint
    (all episodes × repetitions) has completed.
``RunWarning``
    A non-fatal condition worth surfacing — e.g. a pool executor
    falling back to the in-process serial loop because the job grid
    cannot use its workers, or a resumed journal's torn final line.
``JobRetried`` / ``JobQuarantined`` / ``WorkerLost`` / ``ExecutorDegraded``
    Resilience events of the engine's supervision layer: a failed or
    timed-out cell being retried with backoff; a poison cell
    quarantined (its accuracy is NaN) after exhausting its attempts; a
    pool worker lost and re-forked; the executor stepping down its
    degradation ladder.
``JobStateChanged``
    Service runs only (:mod:`repro.service`): the submitted job moved
    through its lifecycle (queued → running → done/failed/cancelled).
    Direct :class:`~repro.api.handle.RunHandle` runs never emit it.
``TelemetrySnapshot``
    The run's telemetry summary (:mod:`repro.obs`): per-phase span
    totals, counters, and gauges — the same data stored in
    ``RunReport.meta["telemetry"]``.  Emitted once, just before
    ``RunFinished``.  Phase durations are clock readings, so two
    otherwise identical runs differ here (and only here).
``RunFinished``
    Emitted once, after the :class:`~repro.api.report.RunReport` is
    assembled; carries the report.

Events are frozen dataclasses: consumers dispatch on type and read
fields, nothing mutates mid-stream.  ``RunEvent``, ``RunWarning`` and
the four resilience events are the engine's own records, defined in
:mod:`repro.core.resilience` and imported here: a campaign's
``on_event`` listener, a run's subscribers, the wire codec and the CLI
all receive the same objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.resilience import (ExecutorDegraded, JobQuarantined, JobRetried,
                               RunEvent, RunWarning, WorkerLost)

__all__ = ["RunEvent", "RunStarted", "CellDone", "CheckpointDone",
           "RunWarning", "JobRetried", "JobQuarantined", "WorkerLost",
           "ExecutorDegraded", "JobStateChanged", "TelemetrySnapshot",
           "RunFinished"]


@dataclass(frozen=True)
class RunStarted(RunEvent):
    """The run is about to start evaluating."""

    experiment: str
    params: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CellDone(RunEvent):
    """One freshly evaluated campaign cell.

    ``series`` names the curve the cell belongs to (layer, model,
    scenario); ``done``/``total`` are per-series cell counts; ``point``/
    ``repeat`` are the cell's grid coordinates; ``accuracy`` its result.
    """

    series: str
    done: int
    total: int
    point: int
    repeat: int
    accuracy: float


@dataclass(frozen=True)
class CheckpointDone(RunEvent):
    """All cells of one scenario device-age checkpoint completed."""

    index: int
    total: int
    age: float


@dataclass(frozen=True)
class JobStateChanged(RunEvent):
    """A service job moved through its lifecycle (queued → running →
    done/failed/cancelled); ``error`` is non-empty for failed jobs."""

    job_id: str
    state: str
    error: str = ""


@dataclass(frozen=True)
class TelemetrySnapshot(RunEvent):
    """The run's telemetry summary (see :mod:`repro.obs`): ``phases``
    maps span names to total seconds, ``counters``/``gauges`` mirror the
    run's metrics registry.  Identical to
    ``RunReport.meta["telemetry"]``."""

    phases: dict[str, float]
    counters: dict[str, float]
    gauges: dict[str, float]


@dataclass(frozen=True)
class RunFinished(RunEvent):
    """The run completed; ``report`` is the assembled RunReport."""

    report: object
