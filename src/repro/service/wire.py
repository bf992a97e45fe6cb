"""The service wire schema: every payload that crosses the socket.

Four payload families travel between :mod:`repro.service.client` and
:mod:`repro.service.server`, all JSON:

* **requests** — a :class:`~repro.api.request.RunRequest` plus the
  service-level ``durable`` flag (journal-backed durability);
* **events** — the typed :mod:`repro.api.events` stream, one frame per
  event (``RunFinished`` carries its full report);
* **reports** — :class:`~repro.api.report.RunReport` in its
  ``to_dict`` schema-v1 form;
* **job records** — :class:`~repro.service.jobs.JobRecord` lifecycle
  snapshots.

Decoding is **strict** in the spirit of :mod:`repro.scenarios.spec`:
unknown fields, missing fields, and unknown event/state names raise
:class:`WireError` (a ``ValueError``, so the CLI maps it to exit
status 2 and the server to HTTP 400) — a malformed submission is
refused at the socket and can never reach the job queue.  Everything
that decodes successfully round-trips bit-exactly: floats serialize via
``repr`` (shortest round-trippable form), so a report fetched over the
wire equals the report the worker produced.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any

from ..api import events as api_events
from ..api.report import SCHEMA_VERSION, RunReport, SeriesReport
from ..api.request import RunRequest

__all__ = ["WIRE_VERSION", "WireError", "canonical_result",
           "decode_event", "decode_job", "decode_report", "decode_request",
           "encode_event", "encode_job", "encode_report", "encode_request"]

#: bump when any wire payload changes incompatibly
WIRE_VERSION = 1


class WireError(ValueError):
    """A payload violating the wire schema (validation-class: the CLI
    exits 2, the server answers HTTP 400)."""


#: every event type that may appear on the stream, by wire name
EVENT_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (api_events.RunStarted, api_events.CellDone,
                api_events.CheckpointDone, api_events.RunWarning,
                api_events.JobRetried, api_events.JobQuarantined,
                api_events.WorkerLost, api_events.ExecutorDegraded,
                api_events.JobStateChanged, api_events.TelemetrySnapshot,
                api_events.RunFinished)
}

#: RunRequest fields a wire submission may carry.  ``journal``/``resume``
#: are deliberately absent: journals live on the *server's* filesystem
#: and are owned by the job store (the ``durable`` flag requests one).
REQUEST_FIELDS = ("experiment", "params", "executor", "n_jobs", "backend",
                  "cache_bytes", "quick", "retries", "job_timeout",
                  "degrade")

_REPORT_FIELDS = ("schema_version", "experiment", "params", "engine",
                  "baseline", "series", "tables", "meta", "artifacts")
_SERIES_FIELDS = ("label", "xs", "mean", "std", "baseline")


def _require_mapping(payload: Any, what: str) -> dict:
    if not isinstance(payload, dict):
        raise WireError(f"{what} must be a JSON object, got "
                        f"{type(payload).__name__}")
    return payload


def _refuse_unknown(payload: dict, allowed: tuple[str, ...],
                    what: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise WireError(f"{what} has unknown field(s) {unknown}; "
                        f"allowed: {sorted(allowed)}")


# -- requests --------------------------------------------------------------

def encode_request(request: RunRequest, durable: bool = False) -> dict:
    """The submission body for one request (see :func:`decode_request`)."""
    return {
        "experiment": request.experiment,
        "params": dict(request.params),
        "executor": request.executor,
        "n_jobs": request.n_jobs,
        "backend": request.backend,
        "cache_bytes": request.cache_bytes,
        "quick": request.quick,
        "retries": request.retries,
        "job_timeout": request.job_timeout,
        "degrade": request.degrade,
        "durable": durable,
    }


def decode_request(payload: Any) -> tuple[RunRequest, bool]:
    """Decode one submission into ``(RunRequest, durable)``.

    Strict: unknown fields (including any attempt to name a server-side
    ``journal`` path) and a non-string ``executor`` (only Python callers
    may pass an executor object) raise :class:`WireError`; field values
    are then validated by :class:`RunRequest` itself (``ApiError``,
    equally a ``ValueError``).  The returned request always has
    ``journal=None`` — the server's job store assigns journals.
    """
    payload = dict(_require_mapping(payload, "request"))
    _refuse_unknown(payload, (*REQUEST_FIELDS, "durable"), "request")
    for name, value in payload.items():
        # JSON has no NaN or Infinity, but Python's json.loads decodes them
        if isinstance(value, float) and not math.isfinite(value):
            raise WireError(f"request field {name!r} must be a finite "
                            f"number, got {value!r}")
    durable = payload.pop("durable", False)
    if not isinstance(durable, bool):
        raise WireError(f"request field 'durable' must be a bool, got "
                        f"{durable!r}")
    if "experiment" not in payload:
        raise WireError("request is missing the 'experiment' field")
    if not isinstance(payload.get("executor", ""), str):
        raise WireError(f"request field 'executor' must be a string, got "
                        f"{payload['executor']!r}")
    return RunRequest(**payload), durable


# -- events ----------------------------------------------------------------

def encode_event(event: api_events.RunEvent) -> dict:
    """One event as its wire frame ``{"event": <type>, ...fields}``."""
    name = type(event).__name__
    if name not in EVENT_TYPES:
        raise WireError(f"cannot encode unregistered event type {name}")
    if isinstance(event, api_events.RunFinished):
        return {"event": name, "report": encode_report(event.report)}
    return {"event": name, **dataclasses.asdict(event)}


def decode_event(payload: Any) -> api_events.RunEvent:
    """Decode one wire frame back into its typed event.

    Strict: unknown event names, unknown fields, and missing fields all
    raise :class:`WireError` — the stream either decodes exactly or not
    at all.
    """
    payload = dict(_require_mapping(payload, "event"))
    name = payload.pop("event", None)
    cls = EVENT_TYPES.get(name)
    if cls is None:
        raise WireError(f"unknown event type {name!r}; "
                        f"known: {sorted(EVENT_TYPES)}")
    if cls is api_events.RunFinished:
        _refuse_unknown(payload, ("report",), "RunFinished event")
        if "report" not in payload:
            raise WireError("RunFinished event is missing its report")
        return api_events.RunFinished(report=decode_report(payload["report"]))
    declared = {f.name: f for f in dataclasses.fields(cls)}
    _refuse_unknown(payload, tuple(declared), f"{name} event")
    missing = sorted(name_ for name_, f in declared.items()
                     if name_ not in payload
                     and f.default is dataclasses.MISSING
                     and f.default_factory is dataclasses.MISSING)
    if missing:
        raise WireError(f"{name} event is missing field(s) {missing}")
    return cls(**payload)


# -- reports ---------------------------------------------------------------

def encode_report(report: RunReport) -> dict:
    """A report's wire form (its ``to_dict`` schema; ``raw`` excluded)."""
    return report.to_dict()


def decode_report(payload: Any) -> RunReport:
    """Rebuild a :class:`RunReport` from its wire form (``raw=None``)."""
    payload = _require_mapping(payload, "report")
    _refuse_unknown(payload, _REPORT_FIELDS, "report")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise WireError(f"report schema_version {version!r} is not the "
                        f"supported {SCHEMA_VERSION}")
    series = []
    for row in payload.get("series", ()):
        row = _require_mapping(row, "report series entry")
        _refuse_unknown(row, _SERIES_FIELDS, "report series entry")
        try:
            series.append(SeriesReport(
                label=row["label"], xs=list(row["xs"]),
                mean=list(row["mean"]), std=list(row["std"]),
                baseline=row.get("baseline")))
        except KeyError as error:
            raise WireError(f"report series entry is missing field "
                            f"{error.args[0]!r}") from error
    try:
        return RunReport(
            experiment=payload["experiment"],
            params=dict(payload["params"]),
            engine=dict(payload["engine"]),
            series=series,
            tables=dict(payload["tables"]),
            baseline=payload["baseline"],
            meta=dict(payload["meta"]),
            artifacts=dict(payload["artifacts"]))
    except KeyError as error:
        raise WireError(f"report is missing field "
                        f"{error.args[0]!r}") from error


def canonical_result(payload: dict) -> dict:
    """The location-independent core of a report's wire form.

    A service run and a direct :mod:`repro.api` run of the same
    :class:`RunRequest` produce bit-identical *results* — series,
    tables, baseline, params — but necessarily differ in where their
    journal lives and how many cells a resumed run replayed.  This
    strips exactly that bookkeeping (``artifacts``, the journal/resume
    engine options, and the journal/resume/event-count meta keys) so
    equality of ``canonical_result(a) == canonical_result(b)`` asserts
    the bit-identity contract and nothing weaker.
    """
    payload = dict(_require_mapping(payload, "report"))
    payload.pop("artifacts", None)
    engine = dict(payload.get("engine", {}))
    for key in ("journal", "resume"):
        engine.pop(key, None)
    payload["engine"] = engine
    meta = dict(payload.get("meta", {}))
    # events/resilience/input_cache/telemetry record *how* the cells
    # were scheduled, cached, and timed, which legitimately differs
    # between a resumed run (fewer fresh evaluations) and a direct one;
    # kernel names the host's packed GEMM, which gives the same integers
    # either way
    for key in ("journal", "resumed_cells", "events", "resilience",
                "input_cache", "telemetry", "kernel"):
        meta.pop(key, None)
    payload["meta"] = meta
    return payload


# -- job records -----------------------------------------------------------

def encode_job(record) -> dict:
    """A :class:`~repro.service.jobs.JobRecord` as its wire form."""
    return {
        "job_id": record.job_id,
        "seq": record.seq,
        "client": record.client,
        "state": record.state.value,
        "durable": record.durable,
        "error": record.error,
        "resumes": record.resumes,
        "cache_bytes": record.cache_bytes,
        "request": encode_request(record.request, record.durable),
    }


def decode_job(payload: Any):
    """Rebuild a :class:`~repro.service.jobs.JobRecord` (strict)."""
    from .jobs import JobRecord, JobState
    payload = _require_mapping(payload, "job record")
    fields = ("job_id", "seq", "client", "state", "durable", "error",
              "resumes", "cache_bytes", "request")
    _refuse_unknown(payload, fields, "job record")
    missing = sorted(set(fields) - set(payload))
    if missing:
        raise WireError(f"job record is missing field(s) {missing}")
    try:
        state = JobState(payload["state"])
    except ValueError as error:
        raise WireError(f"unknown job state {payload['state']!r}; "
                        f"known: {[s.value for s in JobState]}") from error
    request, durable = decode_request(payload["request"])
    if durable != payload["durable"]:
        raise WireError("job record durable flag disagrees with its "
                        "request payload")
    return JobRecord(job_id=payload["job_id"], seq=payload["seq"],
                     client=payload["client"], state=state,
                     durable=payload["durable"], error=payload["error"],
                     resumes=payload["resumes"],
                     cache_bytes=payload["cache_bytes"], request=request)
