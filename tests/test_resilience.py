"""Unit tests for the supervision layer (repro.core.resilience) and the
journal's crash-recovery behavior."""

import json
import os
import threading

import pytest

from repro.core import CampaignJournal, RetryPolicy, SupervisorGaveUp
from repro.core.resilience import (JobQuarantined, JobRetried, PoolSupervisor,
                                   WorkerLost, new_stats, note_stats,
                                   supervised_serial)

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


# -- PoolSupervisor shutdown + retry semantics (synchronous fake pool) ----

class FakePool:
    """apply_async runs inline; records the shutdown sequence."""

    def __init__(self):
        self.shutdown: list[str] = []

    def apply_async(self, func, args, callback, error_callback):
        try:
            value = func(*args)
        except Exception as error:
            error_callback(error)
        else:
            callback(value)

    def close(self):
        self.shutdown.append("close")

    def terminate(self):
        self.shutdown.append("terminate")

    def join(self):
        self.shutdown.append("join")


def test_supervisor_closes_pool_gracefully_on_success():
    pool = FakePool()
    supervisor = PoolSupervisor(lambda: pool, lambda t: t + 1, [1, 2, 3],
                                RetryPolicy(backoff=0.0))
    outcomes = dict(supervisor.run())
    assert outcomes == {1: ("ok", 2), 2: ("ok", 3), 3: ("ok", 4)}
    assert pool.shutdown == ["close", "join"]
    assert supervisor.unfinished() == []


def test_supervisor_terminates_pool_when_consumer_abandons():
    pool = FakePool()
    supervisor = PoolSupervisor(lambda: pool, lambda t: t, [1, 2, 3],
                                RetryPolicy(backoff=0.0))
    stream = supervisor.run()
    next(stream)
    stream.close()  # the KeyboardInterrupt / early-break path
    assert pool.shutdown == ["terminate", "join"]
    assert supervisor.unfinished()  # the rest never got an outcome


def test_supervisor_policy_none_raises_and_terminates():
    pool = FakePool()

    def explode(task):
        raise RuntimeError("job failed")

    supervisor = PoolSupervisor(lambda: pool, explode, [1], None)
    with pytest.raises(RuntimeError, match="job failed"):
        list(supervisor.run())
    assert pool.shutdown == ["terminate", "join"]


class LatePool(FakePool):
    """apply_async answers from a timer thread after ``delays[task]``
    seconds, so tasks are really in flight when the run stops; records
    which tasks had answered when ``terminate`` was called."""

    def __init__(self, delays):
        super().__init__()
        self.delays = delays
        self.answered = []

    def apply_async(self, func, args, callback, error_callback):
        def answer():
            self.answered.append(args[0])
            FakePool.apply_async(self, func, args, callback, error_callback)
        threading.Timer(self.delays[args[0]], answer).start()

    def terminate(self):
        self.shutdown.append(("terminate", sorted(self.answered)))


@pytest.mark.parametrize("path", ["error", "abandon"])
def test_supervisor_waits_out_tasks_in_flight_before_terminate(path):
    """Terminating a worker while it sends a result strands the result
    queue's lock and hangs the pool's teardown, so the error and abandon
    paths let every task in flight answer before ``terminate``."""
    pool = LatePool({1: 0.0, 2: 0.2, 3: 0.3})

    def call(task):
        if path == "error" and task == 1:
            raise RuntimeError("job failed")
        return task

    supervisor = PoolSupervisor(lambda: pool, call, [1, 2, 3], None)
    stream = supervisor.run()
    if path == "error":
        with pytest.raises(RuntimeError, match="job failed"):
            list(stream)
    else:
        next(stream)
        stream.close()
    assert pool.shutdown == [("terminate", [1, 2, 3]), "join"]


def test_supervisor_rebuilds_past_a_teardown_that_never_returns():
    """A pool whose terminate hangs (a worker died holding the result
    queue's lock) costs the rebuild one stall bound, not the run."""
    wedge = threading.Event()

    class WedgedPool(FakePool):
        returned = False

        def apply_async(self, func, args, callback, error_callback):
            pass  # the tasks vanish, as a killed worker's would

        def terminate(self):
            wedge.wait(timeout=10.0)
            self.returned = True

    pools = []

    def factory():
        pools.append(FakePool() if pools else WedgedPool())
        return pools[-1]

    policy = RetryPolicy(stall_timeout=0.2, max_rebuilds=1, backoff=0.0)
    supervisor = PoolSupervisor(factory, lambda t: t, [1, 2], policy)
    outcomes = dict(supervisor.run())
    assert not pools[0].returned  # the run finished past the wedge
    wedge.set()
    assert outcomes == {1: ("ok", 1), 2: ("ok", 2)}
    assert len(pools) == 2 and pools[1].shutdown == ["close", "join"]


def test_supervisor_retries_then_quarantines():
    pool = FakePool()
    events = []
    flaky = Flaky(1)       # task 1 succeeds on attempt 2
    poison = Flaky(99)     # task 2 never succeeds

    def call(task):
        return flaky(task) if task == 1 else poison(task)

    supervisor = PoolSupervisor(lambda: pool, call, [1, 2],
                                RetryPolicy(max_attempts=2, backoff=0.0),
                                on_event=events.append)
    outcomes = dict(supervisor.run())
    assert outcomes[1] == ("ok", 10)
    assert outcomes[2][0] == "quarantined"
    kinds = [type(e).__name__ for e in events]
    assert "JobRetried" in kinds and "JobQuarantined" in kinds
    assert supervisor.unfinished() == []


def test_supervisor_gave_up_lists_unfinished():
    """A factory that fails on rebuild surfaces SupervisorGaveUp and
    leaves the undone tasks claimable by the next rung."""
    calls = {"n": 0}

    class BlackHolePool(FakePool):
        def apply_async(self, func, args, callback, error_callback):
            pass  # the task vanishes, like a killed worker's would

    def black_hole_factory():
        calls["n"] += 1
        return BlackHolePool()

    policy = RetryPolicy(stall_timeout=0.2, max_rebuilds=1, backoff=0.0)
    supervisor = PoolSupervisor(black_hole_factory, lambda t: t, [1, 2],
                                policy)
    with pytest.raises(SupervisorGaveUp, match="unfinished"):
        list(supervisor.run())
    assert supervisor.unfinished() == [1, 2]
    assert calls["n"] == 2  # initial pool + one rebuild


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
