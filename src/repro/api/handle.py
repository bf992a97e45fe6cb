"""Streaming run handles: one event stream over the campaign engine.

A :class:`RunHandle` executes one validated request and emits the typed
events of :mod:`repro.api.events` to every subscriber — the CLI
progress renderer, benchmarks counting cells, tests pinning behavior.
Two consumption styles:

* **callback** — ``handle.subscribe(cb); report = handle.run()`` runs
  synchronously in the calling thread, invoking ``cb`` per event;
* **iterator** — ``for event in handle.events(): ...`` drives the run
  on a background thread and yields events as they arrive (the report
  lands on ``handle.report``).

The :class:`RunContext` is the runner side of the same contract: it
hands catalog functions their engine options (with every campaign's
``on_event`` listener set to the run's stream, so the engine's
resilience records and warnings reach subscribers as they are),
per-series progress callbacks that emit ``CellDone``, and journal-path
derivation with the overwrite guard the CLI used to hand-roll per
subcommand.
"""

from __future__ import annotations

import queue
import threading
from pathlib import Path

from .. import obs as _obs
from .errors import ApiError
from .events import (CellDone, RunEvent, RunFinished, RunStarted, RunWarning,
                     TelemetrySnapshot)
from .registry import Experiment
from .report import RunReport, SeriesReport, series_from_sweeps
from .request import RunRequest

__all__ = ["RunContext", "RunHandle"]


class RunContext:
    """What a registered experiment function gets to work with."""

    def __init__(self, handle: "RunHandle"):
        self._handle = handle
        self.request: RunRequest = handle.request
        self.entry: Experiment = handle.entry
        self.params: dict = handle.params
        self.quick: bool = handle.request.quick
        #: journal paths issued so far, label -> path
        self.journals: dict[str, str] = {}
        #: the run's telemetry (spans + metrics); RunHandle.run activates
        #: it as the ambient observability, so every FaultCampaign the
        #: experiment builds is traced without signature plumbing
        self.obs = _obs.Observability()

    # -- events ---------------------------------------------------------
    def emit(self, event: RunEvent) -> None:
        """Push one typed event to every subscriber."""
        self._handle._emit(event)

    def warn(self, message: str) -> None:
        self.emit(RunWarning(message))

    # -- engine options -------------------------------------------------
    def engine_kwargs(self) -> dict:
        """Keyword arguments for :class:`~repro.core.FaultCampaign`: the
        request's engine options, and :meth:`emit` as the campaign's
        ``on_event`` listener."""
        request = self.request
        return {"executor": request.executor, "n_jobs": request.n_jobs,
                "policy": request.retry_policy(),
                "backend": request.backend,
                "cache_bytes": request.cache_bytes, "on_event": self.emit}

    # -- progress -------------------------------------------------------
    def progress_for(self, series: str):
        """A :meth:`FaultCampaign.run`-style ``progress(done, total,
        cell)`` callback that emits :class:`CellDone` for ``series``."""
        def progress(done, total, cell):
            point, repeat, accuracy = cell
            self.emit(CellDone(series=series, done=done, total=total,
                               point=point, repeat=repeat,
                               accuracy=accuracy))
        return progress

    # -- journals -------------------------------------------------------
    def journal_for(self, label: str | None = None) -> str | None:
        """The journal path for one series (or the whole run).

        Returns ``None`` when the request carries no journal.  For
        multi-series experiments a ``label`` derives one sibling file
        per series (``fig4a.jsonl`` → ``fig4a.conv1.jsonl``) — the
        engine fingerprints each journal against its own grid, so
        series could never share one file anyway.  Without
        ``resume=True`` an existing non-empty journal is refused.
        """
        if self.request.journal is None:
            return None
        path = Path(self.request.journal)
        if label is not None:
            suffix = path.suffix or ".jsonl"
            path = path.with_name(f"{path.stem}.{label}{suffix}")
        if (not self.request.resume and path.exists()
                and path.stat().st_size > 0):
            raise ApiError(f"journal {path} already exists; "
                           "pass resume/--resume to continue it")
        self.journals[label or ""] = str(path)
        return str(path)

    # -- report ---------------------------------------------------------
    def report(self, series=None, tables: dict | None = None,
               baseline: float | None = None, meta: dict | None = None,
               raw: object = None) -> RunReport:
        """Assemble the run's :class:`RunReport`.

        ``series`` may be a ``{label: SweepResult}`` dict (normalized
        via :func:`series_from_sweeps`) or a prebuilt
        :class:`SeriesReport` list.
        """
        if series is None:
            series_list: list[SeriesReport] = []
        elif isinstance(series, dict):
            series_list = series_from_sweeps(series)
        else:
            series_list = list(series)
        report = RunReport(
            experiment=self.entry.name, params=dict(self.params),
            engine=self.request.engine(), series=series_list,
            tables=dict(tables or {}), baseline=baseline,
            meta=dict(meta or {}), raw=raw)
        for label, path in self.journals.items():
            report.artifacts[f"journal:{label}" if label else "journal"] = path
        return report


#: sentinel queue markers for the events() iterator
_DONE = object()


class RunHandle:
    """One experiment run: subscribe, run (or iterate), read the report."""

    def __init__(self, entry: Experiment, request: RunRequest,
                 params: dict):
        self.entry = entry
        self.request = request
        #: fully resolved parameter values (defaults + quick + user)
        self.params = params
        self.report: RunReport | None = None
        self.state = "pending"  # pending -> running -> done | failed
        self._subscribers: list = []
        self._event_counts: dict[str, int] = {}

    def subscribe(self, callback) -> None:
        """Register ``callback(event)`` for every subsequent event."""
        self._subscribers.append(callback)

    def _emit(self, event: RunEvent) -> None:
        name = type(event).__name__
        self._event_counts[name] = self._event_counts.get(name, 0) + 1
        for callback in self._subscribers:
            callback(event)

    def run(self) -> RunReport:
        """Execute synchronously; returns (and stores) the report.

        Idempotent: a second call returns the stored report without
        re-running.  Failures mark the handle ``failed`` and re-raise.
        """
        if self.state == "done":
            return self.report
        if self.state != "pending":
            raise RuntimeError(f"handle is {self.state}; "
                               "create a new one to re-run")
        self.state = "running"
        self._emit(RunStarted(experiment=self.entry.name,
                              params=dict(self.params)))
        context = RunContext(self)
        try:
            with _obs.activated(context.obs), \
                    context.obs.span("run", experiment=self.entry.name):
                report = self.entry.func(context, **self.params)
        except BaseException:
            self.state = "failed"
            raise
        if not isinstance(report, RunReport):
            self.state = "failed"
            raise ApiError(
                f"experiment {self.entry.name!r} returned "
                f"{type(report).__name__}, not a RunReport "
                "(build one with ctx.report(...))")
        report.meta["events"] = dict(self._event_counts)
        telemetry = context.obs.telemetry()
        report.meta["telemetry"] = telemetry
        self.report = report
        self.state = "done"
        self._emit(TelemetrySnapshot(**telemetry))
        self._emit(RunFinished(report=report))
        return report

    def result(self) -> RunReport:
        """The report, running the experiment first if needed."""
        return self.run() if self.report is None else self.report

    def events(self):
        """Iterate events while the run executes on a worker thread.

        Yields every event including the final :class:`RunFinished`;
        afterwards ``handle.report`` holds the report.  An experiment
        failure is re-raised in the consuming thread once the stream
        drains.  Abandoning the iterator early (``break``, ``close()``)
        does **not** cancel the run — the engine has no cancellation
        point — it keeps completing on the daemon worker thread and the
        report still lands on ``handle.report``; use
        :meth:`subscribe` + :meth:`run` when the caller needs to stay
        in control of the run's thread.
        """
        stream: queue.Queue = queue.Queue()
        self.subscribe(stream.put)
        failure: list[BaseException] = []
        drained = False

        def drive():
            try:
                self.run()
            except BaseException as error:  # re-raised in the consumer
                failure.append(error)
            finally:
                stream.put(_DONE)

        thread = threading.Thread(target=drive, name="repro-run", daemon=True)
        thread.start()
        try:
            while True:
                event = stream.get()
                if event is _DONE:
                    drained = True
                    break
                yield event
        finally:
            # join only a finished run: an early-exiting consumer must
            # not block here for the remainder of a long campaign
            if drained:
                thread.join()
        if failure:
            raise failure[0]
