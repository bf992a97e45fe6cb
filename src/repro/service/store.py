"""The job store: what survives a killed server.

One directory holds everything a server needs to pick up where a
previous life stopped::

    <store>/jobs/<job_id>.json      job record snapshots (atomic writes)
    <store>/results/<job_id>.json   finished reports, wire form
    <store>/journals/<job_id>.jsonl campaign journals of durable jobs

Records are rewritten atomically on every transition
(:func:`repro.api.report.atomic_write_text`), so a SIGKILL at any
instant leaves each job either at its previous state or its new one,
never torn.  On startup :meth:`JobStore.recover` re-enqueues every
non-terminal job: ``queued`` jobs restart from scratch, ``running``
durable jobs take the ``running → queued`` edge with ``resume=True``
against their journal — the campaign engine then replays finished cells
from the journal without re-evaluating them.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from ..api.report import atomic_write_text
from . import wire
from .jobs import TERMINAL, JobRecord, JobState

__all__ = ["JobStore"]


class JobStore:
    """Filesystem persistence for job records, results and journals."""

    def __init__(self, root: Path | str):
        self.root = Path(root)
        for sub in ("jobs", "results", "journals"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    # -- paths ----------------------------------------------------------
    def record_path(self, job_id: str) -> Path:
        return self.root / "jobs" / f"{job_id}.json"

    def result_path(self, job_id: str) -> Path:
        return self.root / "results" / f"{job_id}.json"

    def journal_path(self, job_id: str) -> Path:
        return self.root / "journals" / f"{job_id}.jsonl"

    # -- records --------------------------------------------------------
    def save_record(self, record: JobRecord) -> None:
        payload = wire.encode_job(record)
        atomic_write_text(self.record_path(record.job_id),
                          json.dumps(payload, indent=2) + "\n")

    def load_records(self) -> list[JobRecord]:
        """Every persisted record, in submission (``seq``) order."""
        records = []
        for path in sorted((self.root / "jobs").glob("*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            records.append(wire.decode_job(payload))
        records.sort(key=lambda record: record.seq)
        return records

    # -- results --------------------------------------------------------
    def save_result(self, job_id: str, report_payload: dict) -> None:
        atomic_write_text(self.result_path(job_id),
                          json.dumps(report_payload, indent=2) + "\n")

    def load_result(self, job_id: str) -> dict | None:
        path = self.result_path(job_id)
        if not path.exists():
            return None
        return json.loads(path.read_text(encoding="utf-8"))

    # -- recovery -------------------------------------------------------
    def recover(self) -> tuple[list[JobRecord], list[JobRecord]]:
        """Split persisted records into ``(finished, to_requeue)``.

        Non-terminal records come back ready to enqueue: a ``running``
        record (the server died under it) is flipped back to ``queued``
        with its resume counter bumped; for durable jobs the runner
        will then arm ``resume=True`` against :meth:`journal_path`.
        The flipped state is persisted immediately so a crash during
        recovery itself cannot double-bump counters on the next life.
        """
        finished, to_requeue = [], []
        for record in self.load_records():
            if record.state in TERMINAL:
                finished.append(record)
                continue
            if record.state is JobState.RUNNING:
                record = replace(record, state=JobState.QUEUED,
                                 resumes=record.resumes + 1)
                self.save_record(record)
            to_requeue.append(record)
        return finished, to_requeue
