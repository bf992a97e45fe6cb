"""End-to-end tests for the campaign service.

Three layers of proof, each stronger than the last:

* **parity** (in-process server): a campaign submitted over the service
  streams *bit-for-bit* the same event sequence a direct
  :class:`~repro.api.handle.RunHandle` run emits — same types, same
  fields, same order — and its fetched report equals the direct
  report's wire form exactly.
* **durability** (subprocess server): a ``--durable`` job survives
  ``SIGKILL`` mid-campaign; the restarted server re-enqueues it from
  the job store, resumes from its journal, and completes.  Claim
  tokens (:class:`repro.testing.chaos.ChaosSpec`, one token per grid
  cell across both server lives) prove no finished cell was ever
  re-evaluated, and the final report is canonically identical to a
  direct run of the same request.
* **lifecycle**: queue backpressure (503), per-client budget refusal
  (429), cancellation, and failed-job reporting over the same wire.
"""

import json
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import service_support  # noqa: F401  (registers svc-tiny)
from repro import api
from repro.api.events import (CellDone, JobStateChanged, RunFinished,
                              TelemetrySnapshot)
from repro.api.request import RunRequest
from repro.service import (RequestRefused, ServiceClient, ServiceError,
                           start_in_thread, wire)
from repro.service.jobs import JobState

REPO = Path(__file__).resolve().parents[1]

#: the sweep the e2e jobs run: 4 rates x 3 repeats = 12 cells
PARAMS = {"rates": [0.0, 0.1, 0.2, 0.3], "repeats": 3}
TOTAL_CELLS = 12


# -- parity: service run == direct run, bit for bit ------------------------

def _without_telemetry(report_dict):
    """A report's wire form minus ``meta["telemetry"]`` — span timings
    are wall-clock and legitimately differ between two runs; everything
    else must stay bit-identical."""
    payload = dict(report_dict)
    meta = dict(payload.get("meta", {}))
    meta.pop("telemetry", None)
    payload["meta"] = meta
    return payload


def test_service_stream_matches_direct_run_bit_for_bit(tmp_path):
    request = RunRequest("svc-tiny", params=PARAMS)

    direct_events = []
    direct_handle = api.submit(request)
    direct_handle.subscribe(direct_events.append)
    direct_report = direct_handle.run()

    with start_in_thread(tmp_path / "store", workers=1) as port:
        client = ServiceClient(port=port)
        record = client.submit(request)
        streamed, final = [], None
        for kind, item in client.stream(record.job_id, timeout=120):
            if kind == "end":
                final = item
            else:
                streamed.append(item)
        result = client.result(record.job_id)

    assert final.state is JobState.DONE
    # the service interleaves its lifecycle events; everything else is
    # the run's own stream and must match the direct run exactly
    lifecycle = [e for e in streamed if isinstance(e, JobStateChanged)]
    assert [e.state for e in lifecycle] == ["queued", "running", "done"]
    run_events = [e for e in streamed if not isinstance(e, JobStateChanged)]
    # the telemetry snapshot carries wall-clock span timings, so only
    # its shape is comparable across two runs; the rest of the stream
    # (and each RunFinished report minus telemetry) is bit-identical
    snapshots = [e for e in run_events if isinstance(e, TelemetrySnapshot)]
    direct_snapshots = [e for e in direct_events
                        if isinstance(e, TelemetrySnapshot)]
    assert len(snapshots) == len(direct_snapshots) == 1
    assert sorted(snapshots[0].phases) == sorted(direct_snapshots[0].phases)
    assert snapshots[0].counters == direct_snapshots[0].counters

    def comparable(events):
        return [_without_telemetry(e.report.to_dict())
                if isinstance(e, RunFinished) else e
                for e in events if not isinstance(e, TelemetrySnapshot)]

    assert comparable(run_events) == comparable(direct_events)
    assert _without_telemetry(result) \
        == _without_telemetry(direct_report.to_dict())
    # and the RunFinished frame carried the identical report inline
    finished = [e for e in run_events if isinstance(e, RunFinished)]
    assert len(finished) == 1
    assert _without_telemetry(finished[0].report.to_dict()) \
        == _without_telemetry(direct_report.to_dict())


def test_quick_submission_over_cli_roundtrip(tmp_path, capsys):
    """The CLI pair against an in-process server: submit → watch →
    fetch, exercising the renderer's JobStateChanged branch."""
    from repro.cli import main

    with start_in_thread(tmp_path / "store", workers=1) as port:
        code = main(["submit", "svc-tiny", "--quick",
                     "--port", str(port)])
        out = capsys.readouterr()
        assert code == 0
        job_id = out.out.strip().splitlines()[-1]
        assert job_id.startswith("job-")

        code = main(["watch", job_id, "--port", str(port)])
        out = capsys.readouterr()
        assert code == 0
        assert f"job {job_id}: done" in out.out

        report_path = tmp_path / "fetched.json"
        code = main(["fetch", job_id, "--port", str(port),
                     "--out", str(report_path)])
        out = capsys.readouterr()
        assert code == 0
        assert "experiment: svc-tiny" in out.out
        payload = json.loads(report_path.read_text())
        direct = api.run("svc-tiny", quick=True)
        assert _without_telemetry(payload) \
            == _without_telemetry(direct.to_dict())


# -- SSE replay: ?since=N is an exact suffix cursor ------------------------

def test_sse_since_replays_in_order_without_duplicates(tmp_path):
    """``?since=N`` must replay exactly the frames past N, in original
    sequence order, never duplicating — with the telemetry frame
    interleaved at its recorded position like any other event."""
    with start_in_thread(tmp_path / "store", workers=1) as port:
        client = ServiceClient(port=port)
        record = client.submit(RunRequest("svc-tiny", params=PARAMS))
        full = []
        for kind, item in client.stream(record.job_id, timeout=120):
            if kind == "end":
                assert item.state is JobState.DONE
            else:
                full.append(item)
        # the stream carries exactly one telemetry frame, after the
        # last CellDone and before RunFinished
        kinds = [type(e).__name__ for e in full]
        assert kinds.count("TelemetrySnapshot") == 1
        assert kinds.index("TelemetrySnapshot") \
            > max(i for i, k in enumerate(kinds) if k == "CellDone")
        assert kinds.index("TelemetrySnapshot") \
            < kinds.index("RunFinished")
        # every cursor yields the exact suffix — order preserved, no
        # frame repeated, no frame skipped
        for cursor in (0, 1, len(full) // 2, len(full) - 1, len(full)):
            replayed = [item for kind, item
                        in client.stream(record.job_id, since=cursor,
                                         timeout=60)
                        if kind != "end"]
            assert replayed == full[cursor:]


# -- durability: SIGKILL mid-campaign, restart, resume ---------------------

class ServerProcess:
    """A ``repro serve`` subprocess on an ephemeral port, its stdout and
    stderr written to ``log``."""

    def __init__(self, store: Path, port_file: Path, claim_dir: Path,
                 log: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src"), str(REPO / "tests")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["REPRO_SVC_CLAIM"] = str(claim_dir)
        env["REPRO_N_JOBS"] = "1"
        port_file.unlink(missing_ok=True)
        with open(log, "wb") as out:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--port-file", str(port_file), "--store", str(store),
                 "--workers", "1", "--preload", "service_support"],
                env=env, cwd=str(REPO), stdout=out,
                stderr=subprocess.STDOUT)
        # a live subprocess can only be awaited on the wall clock
        deadline = time.monotonic() + 60  # repro: allow[no-wall-clock]
        while not port_file.exists():
            if self.process.poll() is not None:
                raise RuntimeError("server died during startup")
            if time.monotonic() > deadline:  # repro: allow[no-wall-clock]
                self.process.kill()
                raise RuntimeError("server did not write its port file")
            time.sleep(0.05)
        self.port = int(port_file.read_text().strip())

    def sigkill(self) -> None:
        self.process.send_signal(signal.SIGKILL)
        self.process.wait(timeout=30)

    def terminate(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)


@contextmanager
def _logs_printed_on_failure(*logs: Path):
    """Print each server life's output when the block fails, so a
    failure of the subprocess test explains itself."""
    try:
        yield
    except BaseException:
        for log in logs:
            text = (log.read_text(errors="replace") if log.exists()
                    else "(never started)")
            print(f"--- {log.name} ---\n{text or '(no output)'}")
        raise


def test_sigkill_midcampaign_restart_resumes_from_journal(tmp_path):
    first_log = tmp_path / "server-life-1.log"
    second_log = tmp_path / "server-life-2.log"
    with _logs_printed_on_failure(first_log, second_log):
        store = tmp_path / "store"
        port_file = tmp_path / "port"
        claim_dir = tmp_path / "claims"
        claim_dir.mkdir()
        params = {**PARAMS, "delay": 0.25}

        server = ServerProcess(store, port_file, claim_dir, first_log)
        try:
            client = ServiceClient(port=server.port)
            record = client.submit(RunRequest("svc-tiny", params=params),
                                   durable=True)
            assert record.durable

            # first life: let a few cells land, then SIGKILL mid-campaign
            first_life_cells = 0
            with pytest.raises(ServiceError):
                for kind, item in client.stream(record.job_id, timeout=120):
                    if kind == "event" and isinstance(item, CellDone):
                        first_life_cells += 1
                        if first_life_cells >= 3:
                            server.sigkill()
            assert 3 <= first_life_cells < TOTAL_CELLS
            journal = store / "journals" / f"{record.job_id}.jsonl"
            assert journal.exists() and journal.stat().st_size > 0

            # second life: same store — the job must come back, resume,
            # and finish without re-evaluating any journaled cell (the
            # claim tokens turn a re-run into a FAILED job)
            server = ServerProcess(store, port_file, claim_dir, second_log)
            client = ServiceClient(port=server.port)
            second_life_events = []
            final = client.watch(record.job_id,
                                 on_event=second_life_events.append)
            assert final.state is JobState.DONE, final.error
            assert final.resumes >= 1

            result = client.result(record.job_id)
            resumed = result["meta"]["resumed_cells"]
            assert resumed >= 3  # every journaled first-life cell came back
            fresh = [e for e in second_life_events
                     if isinstance(e, CellDone)]
            assert len(fresh) == TOTAL_CELLS - resumed
            fresh_cells = {(e.point, e.repeat) for e in fresh}
            assert len(fresh_cells) == len(fresh)  # no cell emitted twice
            assert fresh_cells <= {(p, r) for p in range(4) for r in range(3)}
            # SSE replay across the restart: the second life's buffer is a
            # fresh sequence, and ?since=N is still an exact suffix cursor
            # over it — original order, no duplicates, telemetry included
            second_life = [item for kind, item
                           in client.stream(record.job_id, timeout=60)
                           if kind != "end"]
            kinds = [type(e).__name__ for e in second_life]
            assert kinds.count("TelemetrySnapshot") == 1
            mid = len(second_life) // 2
            replayed = [item for kind, item
                        in client.stream(record.job_id, since=mid, timeout=60)
                        if kind != "end"]
            assert replayed == second_life[mid:]
            # after completion the journal holds the full grid exactly once
            assert sorted(_journaled_cells(journal)) \
                == sorted((p, r) for p in range(4) for r in range(3))
        finally:
            server.terminate()

        # one claim token per cell across BOTH lives — nothing ran twice
        claimed = sorted(p.name for p in claim_dir.glob("cell-*.claimed"))
        assert len(claimed) == TOTAL_CELLS

        # bit-identity: the service's post-kill-resume report equals a
        # direct in-process run of the same request (modulo journal/cache
        # bookkeeping, which canonical_result strips)
        direct = api.run("svc-tiny", params=params)
        assert wire.canonical_result(result) \
            == wire.canonical_result(direct.to_dict())


def _journaled_cells(journal: Path):
    cells = []
    for line in journal.read_text().splitlines()[1:]:
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail
        if "point" in payload:
            cells.append((payload["point"], payload["repeat"]))
    return cells


# -- lifecycle: backpressure, budgets, cancellation, failures --------------

def test_queue_backpressure_and_budget(tmp_path):
    request = RunRequest("svc-tiny", params={**PARAMS, "delay": 0.2})
    with start_in_thread(tmp_path / "store", workers=1, queue_size=1,
                         client_budget_bytes=600 << 20) as port:
        client = ServiceClient(port=port)
        first = client.submit(request)
        # budget: 600 MiB admits two default-charged jobs (256 MiB
        # each), refuses the third with 429
        second = client.submit(request)
        with pytest.raises(RequestRefused) as refusal:
            client.submit(request)
        assert refusal.value.status == 429
        # a small-cache job still fits under the budget, but the
        # 1-slot queue is now full -> 503 backpressure (a server-side
        # "retry later", not a client validation error)
        small = RunRequest("svc-tiny", params=PARAMS,
                           cache_bytes=1 << 20)
        with pytest.raises(ServiceError) as busy:
            client.submit(small)
        assert busy.value.status == 503
        for record in (first, second):
            assert client.watch(record.job_id).state is JobState.DONE


def test_cancel_queued_and_running_jobs(tmp_path):
    slow = RunRequest("svc-tiny", params={**PARAMS, "delay": 0.3})
    with start_in_thread(tmp_path / "store", workers=1) as port:
        client = ServiceClient(port=port)
        running = client.submit(slow)
        queued = client.submit(slow)

        cancelled = client.cancel(queued.job_id)
        assert cancelled.state is JobState.CANCELLED

        # wait until the first job actually runs, then cancel it
        deadline = time.monotonic() + 60  # repro: allow[no-wall-clock]
        while client.job(running.job_id).state is JobState.QUEUED:
            assert time.monotonic() < deadline  # repro: allow[no-wall-clock]
            time.sleep(0.05)
        client.cancel(running.job_id)
        final = client.watch(running.job_id)
        assert final.state is JobState.CANCELLED
        with pytest.raises(RequestRefused) as refusal:
            client.result(running.job_id)
        assert refusal.value.status == 409


def test_failed_job_reports_its_error(tmp_path):
    # an out-of-range injection rate passes request validation (params
    # content is the experiment's concern) but fails inside the run
    bad = RunRequest("svc-tiny", params={**PARAMS, "rates": [2.0]})
    with start_in_thread(tmp_path / "store", workers=1) as port:
        client = ServiceClient(port=port)
        record = client.submit(bad)
        final = client.watch(record.job_id)
        assert final.state is JobState.FAILED
        assert "rate must be in [0, 1]" in final.error


def test_unknown_job_is_404(tmp_path):
    with start_in_thread(tmp_path / "store", workers=1) as port:
        client = ServiceClient(port=port)
        with pytest.raises(RequestRefused) as refusal:
            client.job("job-nope")
        assert refusal.value.status == 404
