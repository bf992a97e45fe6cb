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
    cannot use its workers.
``JobRetried`` / ``JobQuarantined`` / ``WorkerLost`` / ``ExecutorDegraded``
    Resilience events mirrored from the engine's supervision layer
    (:mod:`repro.core.resilience`): a failed or timed-out cell being
    retried with backoff; a poison cell quarantined (its accuracy is
    NaN) after exhausting its attempts; a pool worker lost and
    re-forked; the executor stepping down its degradation ladder.
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
fields, nothing mutates mid-stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["RunEvent", "RunStarted", "CellDone", "CheckpointDone",
           "RunWarning", "JobRetried", "JobQuarantined", "WorkerLost",
           "ExecutorDegraded", "JobStateChanged", "TelemetrySnapshot",
           "RunFinished"]


@dataclass(frozen=True)
class RunEvent:
    """Base class of every streamed event (useful for isinstance gates)."""


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
class RunWarning(RunEvent):
    """A non-fatal condition the consumer should surface."""

    message: str


@dataclass(frozen=True)
class JobRetried(RunEvent):
    """A cell's attempt failed (``cause`` is ``"error"`` or
    ``"timeout"``); it retries after ``delay`` seconds."""

    point: int
    repeat: int
    attempt: int
    delay: float
    cause: str
    error: str


@dataclass(frozen=True)
class JobQuarantined(RunEvent):
    """A cell exhausted its attempts; its accuracy is NaN and the run
    continues without it."""

    point: int
    repeat: int
    attempts: int
    error: str


@dataclass(frozen=True)
class WorkerLost(RunEvent):
    """Pool workers died (or stalled) and were re-forked; the
    ``in_flight`` cells they held were re-dispatched."""

    reason: str
    in_flight: int


@dataclass(frozen=True)
class ExecutorDegraded(RunEvent):
    """The executor stepped down its degradation ladder; remaining
    cells run in ``to_mode`` with bit-identical results."""

    from_mode: str
    to_mode: str
    reason: str


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
