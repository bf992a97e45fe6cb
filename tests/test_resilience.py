"""Unit tests for the supervision layer (repro.core.resilience) and the
journal's crash-recovery behavior."""

import json
import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import nn
from repro.binary import QuantDense
from repro.core import (CampaignJournal, FaultCampaign, FaultSpec,
                        RetryPolicy, SupervisorGaveUp)
from repro.core.resilience import (JobQuarantined, JobRetried, PoolSupervisor,
                                   WorkerLost, new_stats, note_stats,
                                   supervised_serial)
from repro.testing import ChaosSharedMemoryExecutor, ChaosSpec

# -- RetryPolicy ----------------------------------------------------------

def test_policy_backoff_schedule_is_deterministic():
    policy = RetryPolicy(backoff=0.5, backoff_factor=2.0, max_backoff=3.0)
    assert [policy.delay_for(n) for n in (1, 2, 3, 4, 5)] == \
        [0.5, 1.0, 2.0, 3.0, 3.0]


@pytest.mark.parametrize("kwargs", [
    dict(max_attempts=0),
    dict(backoff=-1.0),
    dict(backoff_factor=0.5),
    dict(job_timeout=0),
    dict(stall_timeout=0),
    dict(max_rebuilds=-1),
    dict(job_timeout=float("nan")),
    dict(job_timeout=float("inf")),
    dict(stall_timeout=float("nan")),
    dict(stall_timeout=float("inf")),
])
def test_policy_rejects_invalid_knobs(kwargs):
    with pytest.raises(ValueError):
        RetryPolicy(**kwargs)


# -- supervised_serial ----------------------------------------------------

class Flaky:
    """Callable failing the first ``failures`` calls per task."""

    def __init__(self, failures: int):
        self.failures = failures
        self.calls = {}

    def __call__(self, task):
        seen = self.calls[task] = self.calls.get(task, 0) + 1
        if seen <= self.failures:
            raise RuntimeError(f"boom #{seen}")
        return task * 10


def test_serial_retries_transient_failure_with_backoff():
    slept, events = [], []
    policy = RetryPolicy(max_attempts=3, backoff=0.5)
    outcomes = list(supervised_serial([1, 2], Flaky(1), policy,
                                      on_event=events.append,
                                      sleep=slept.append))
    assert outcomes == [(1, ("ok", 10)), (2, ("ok", 20))]
    assert slept == [0.5, 0.5]
    assert [type(e) for e in events] == [JobRetried, JobRetried]
    assert events[0].cause == "error"


def test_serial_quarantines_poison_task():
    events = []
    policy = RetryPolicy(max_attempts=2, backoff=0.0)
    outcomes = list(supervised_serial([1], Flaky(99), policy,
                                      on_event=events.append,
                                      sleep=lambda s: None))
    (task, (kind, detail)), = outcomes
    assert (task, kind) == (1, "quarantined")
    assert "boom" in detail
    assert type(events[-1]) is JobQuarantined
    assert events[-1].attempts == 2


def test_serial_policy_none_raises_through():
    with pytest.raises(RuntimeError, match="boom"):
        list(supervised_serial([1], Flaky(99), None))


# -- stats folding --------------------------------------------------------

def test_note_stats_folds_events():
    stats = new_stats()
    note_stats(stats, JobRetried(point=0, repeat=1, attempt=1, delay=0.0,
                                 cause="timeout", error="e"))
    note_stats(stats, JobQuarantined(point=2, repeat=0, attempts=3,
                                     error="e"))
    note_stats(stats, JobQuarantined(point=2, repeat=0, attempts=3,
                                     error="e"))  # deduped
    note_stats(stats, WorkerLost(reason="died", in_flight=2))
    assert stats["retries"] == 1 and stats["timeouts"] == 1
    assert stats["quarantined"] == [(2, 0)]
    assert stats["workers_lost"] == 1


# -- PoolSupervisor on real forked workers --------------------------------

class RecordingContext:
    """The fork context, keeping every worker process it creates."""

    def __init__(self):
        self._context = multiprocessing.get_context("fork")
        self.processes = []

    def Pipe(self):
        return self._context.Pipe()

    def Process(self, *args, **kwargs):
        self.processes.append(self._context.Process(*args, **kwargs))
        return self.processes[-1]


def _supervisor(func, tasks, policy, *, workers=2, **kwargs):
    context = RecordingContext()
    return context, PoolSupervisor(func, tasks, policy, context=context,
                                   workers=workers, **kwargs)


def test_supervisor_closes_pool_gracefully_on_success():
    context, supervisor = _supervisor(lambda t: t + 1, [1, 2, 3],
                                      RetryPolicy(backoff=0.0))
    outcomes = dict(supervisor.run())
    assert outcomes == {1: ("ok", 2), 2: ("ok", 3), 3: ("ok", 4)}
    assert supervisor.unfinished() == []
    # stopped by the stop message, not killed, and joined
    assert [process.exitcode for process in context.processes] == [0, 0]
    assert multiprocessing.active_children() == []


def test_supervisor_terminates_pool_when_consumer_abandons():
    def call(task):
        if task == 2:
            time.sleep(30.0)
        return task

    _, supervisor = _supervisor(call, [1, 2, 3], RetryPolicy(backoff=0.0))
    stream = supervisor.run()
    assert next(stream) == (1, ("ok", 1))
    # the KeyboardInterrupt / early-break path, which must not wait out
    # task 2
    closer = threading.Thread(target=stream.close, daemon=True)
    closer.start()
    closer.join(5.0)
    assert not closer.is_alive()
    assert multiprocessing.active_children() == []
    assert 2 in supervisor.unfinished()


def test_supervisor_policy_none_raises_and_terminates():
    def explode(task):
        raise RuntimeError("job failed")

    context, supervisor = _supervisor(explode, [1], None)
    with pytest.raises(RuntimeError, match="job failed"):
        list(supervisor.run())
    assert [process.exitcode for process in context.processes] == \
        [-signal.SIGKILL] * 2
    assert multiprocessing.active_children() == []


def test_supervisor_retries_then_quarantines():
    events = []
    flaky = Flaky(1)       # task 1 succeeds on attempt 2
    poison = Flaky(99)     # task 2 never succeeds

    def call(task):
        return flaky(task) if task == 1 else poison(task)

    # one worker: the call counts live in that worker's memory
    _, supervisor = _supervisor(call, [1, 2],
                                RetryPolicy(max_attempts=2, backoff=0.0),
                                workers=1, on_event=events.append)
    outcomes = dict(supervisor.run())
    assert outcomes[1] == ("ok", 10)
    assert outcomes[2][0] == "quarantined"
    kinds = [type(e).__name__ for e in events]
    assert "JobRetried" in kinds and "JobQuarantined" in kinds
    assert supervisor.unfinished() == []


def test_supervisor_gave_up_lists_unfinished():
    """Workers that keep dying exhaust the loss budget: SupervisorGaveUp,
    with the undone tasks left claimable by the next rung."""
    def vanish(task):
        os.kill(os.getpid(), signal.SIGKILL)

    policy = RetryPolicy(max_rebuilds=1, backoff=0.0)
    context, supervisor = _supervisor(vanish, [1, 2], policy, workers=1)
    with pytest.raises(SupervisorGaveUp, match="unfinished"):
        list(supervisor.run())
    assert supervisor.unfinished() == [1, 2]
    assert len(context.processes) == 2  # the first worker + one re-fork


# -- one lost or timed-out worker costs only its own job -------------------

GRID = dict(xs=[0.0, 0.3, 0.45], repeats=2, seed=7)


@pytest.fixture(scope="module")
def trained_setup():
    """A tiny trained BNN with enough test data for 12 batches of 25."""
    rng = np.random.default_rng(0)
    x = rng.choice([-1.0, 1.0], size=(600, 16)).astype(np.float32)
    y = (x[:, :8].sum(axis=1) > 0).astype(int)
    model = nn.Sequential([
        QuantDense(32, input_quantizer="ste_sign", kernel_quantizer="ste_sign"),
        nn.BatchNorm(),
        nn.Sign(),
        QuantDense(2, input_quantizer="ste_sign", kernel_quantizer="ste_sign"),
        nn.BatchNorm(),
    ]).build((16,), seed=0)
    nn.Trainer(nn.Adam(0.01), seed=0).fit(model, x[:300], y[:300],
                                          epochs=15, batch_size=32)
    return model, x[300:], y[300:]


def _campaign(trained_setup, executor=None, on_event=None):
    model, x, y = trained_setup
    return FaultCampaign(model, x, y, rows=8, cols=4, batch_size=25,
                         executor=executor or "serial", on_event=on_event)


@pytest.fixture(scope="module")
def reference(trained_setup):
    return _campaign(trained_setup).run(FaultSpec.bitflip, **GRID)


def test_killed_worker_costs_only_its_own_job(trained_setup, reference,
                                              tmp_path):
    """One worker dies on cell (1, 0) while the other sleeps through
    cell (0, 1): one WorkerLost, for the one job the dead worker held."""
    chaos = ChaosSpec(scratch=str(tmp_path), kill_job=(1, 0),
                      slow_job=(0, 1), slow_seconds=1.0)
    executor = ChaosSharedMemoryExecutor(
        n_jobs=2, chaos=chaos,
        policy=RetryPolicy(backoff=0.0, stall_timeout=5.0, max_rebuilds=1))
    events = []
    result = _campaign(trained_setup, executor, events.append).run(
        FaultSpec.bitflip, **GRID)
    np.testing.assert_array_equal(result.accuracies, reference.accuracies)
    lost = [event for event in events if isinstance(event, WorkerLost)]
    assert len(lost) == 1 and lost[0].in_flight == 1


def test_timed_out_job_reforks_only_its_worker(trained_setup, reference,
                                               tmp_path):
    """A job past its timeout costs only its own worker: 2 workers and
    one re-fork run the initializer 3 times."""
    inits = tmp_path / "inits"

    class CountingInits(ChaosSharedMemoryExecutor):
        def _pool_functions(self):
            initializer, task_fn = super()._pool_functions()

            def counted(*initargs):
                with open(inits, "a") as handle:
                    handle.write(f"{os.getpid()}\n")
                initializer(*initargs)
            return counted, task_fn

    chaos = ChaosSpec(scratch=str(tmp_path), slow_job=(0, 1),
                      slow_seconds=30.0)
    executor = CountingInits(
        n_jobs=2, chaos=chaos,
        policy=RetryPolicy(backoff=0.0, job_timeout=1.0, stall_timeout=5.0,
                           max_rebuilds=1))
    result = _campaign(trained_setup, executor).run(FaultSpec.bitflip,
                                                    **GRID)
    np.testing.assert_array_equal(result.accuracies, reference.accuracies)
    assert result.meta["resilience"]["timeouts"] == 1
    assert result.meta["resilience"]["workers_lost"] == 0
    assert len(inits.read_text().split()) == 3


def test_lost_worker_without_policy_raises(trained_setup, tmp_path):
    """With no policy a dead worker raises SupervisorGaveUp naming it,
    instead of leaving the run waiting for its result forever."""
    chaos = ChaosSpec(scratch=str(tmp_path), kill_job=(1, 0))
    executor = ChaosSharedMemoryExecutor(n_jobs=2, policy=None, chaos=chaos)
    errors = []

    def run():
        try:
            _campaign(trained_setup, executor).run(FaultSpec.bitflip, **GRID)
        except SupervisorGaveUp as error:
            errors.append(error)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(20.0)
    assert not thread.is_alive(), "the run hung on a lost worker"
    (error,) = errors
    assert "worker process" in str(error) and "unfinished" in str(error)


# -- journal crash recovery -----------------------------------------------

HEADER = {"xs": [0.0], "repeats": 1, "seed": 0, "rows": 8, "cols": 4,
          "layers": None, "backend": "float", "label": "t"}


def test_journal_fsync_opt_in(tmp_path, monkeypatch):
    synced = []
    monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd))
    with CampaignJournal(tmp_path / "a.jsonl", HEADER) as journal:
        journal.record(0, 0, 0.0, 0.5)
    assert synced == []  # default: flush only
    with CampaignJournal(tmp_path / "b.jsonl", HEADER,
                         fsync=True) as journal:
        journal.record(0, 0, 0.0, 0.5)
    assert len(synced) >= 2  # header + cell


def test_journal_torn_tail_warns_and_discards(tmp_path):
    path = tmp_path / "j.jsonl"
    with CampaignJournal(path, HEADER) as journal:
        journal.record(0, 0, 0.0, 0.5)
        journal.record(0, 1, 0.0, 0.75)
    text = path.read_text()
    path.write_text(text[:-10])  # kill -9 mid-append
    with pytest.warns(RuntimeWarning, match="torn line"):
        with CampaignJournal(path, HEADER) as journal:
            assert journal.completed == {(0, 0): 0.5}


def test_journal_torn_tail_routes_to_on_warning(tmp_path):
    path = tmp_path / "j.jsonl"
    with CampaignJournal(path, HEADER) as journal:
        journal.record(0, 0, 0.0, 0.5)
    path.write_text(path.read_text()[:-5])
    messages = []
    with CampaignJournal(path, HEADER,
                         on_warning=messages.append) as journal:
        assert journal.completed == {}
    assert messages and "torn line" in messages[0]


def test_journal_refuses_mid_file_corruption(tmp_path):
    path = tmp_path / "j.jsonl"
    with CampaignJournal(path, HEADER) as journal:
        journal.record(0, 0, 0.0, 0.5)
        journal.record(0, 1, 0.0, 0.75)
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1][:9] + "\n"  # damage an *interior* line
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="corrupt at line 2"):
        CampaignJournal(path, HEADER).open()


def test_journal_event_notes_are_audit_only(tmp_path):
    path = tmp_path / "j.jsonl"
    with CampaignJournal(path, HEADER) as journal:
        journal.record(0, 0, 0.0, 0.5)
        journal.note(WorkerLost(reason="sigkill", in_flight=2))
        journal.record(0, 1, 0.0, 0.75)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    events = [line for line in lines if line.get("kind") == "event"]
    assert events == [{"kind": "event", "event": "WorkerLost",
                       "reason": "sigkill", "in_flight": 2}]
    with CampaignJournal(path, HEADER) as journal:  # events don't resume
        assert journal.completed == {(0, 0): 0.5, (0, 1): 0.75}
