"""Fault tolerance for the campaign engine itself.

The paper's premise is that computation must survive device faults; this
module makes the *fault injector* survive its own faults.  A pool worker
SIGKILLed mid-grid, an initializer that raises, a job that hangs — none
of these should cost a running campaign more than the lost cells'
re-evaluation, because every cell's fault plan is a pure function of its
grid coordinates (:mod:`repro.core.engine`): re-running a lost job
yields the bit-identical accuracy, no matter where or when it re-runs.

Three cooperating pieces:

:class:`RetryPolicy`
    Deterministic knobs: attempts per job, exponential backoff, an
    optional per-job wall-clock timeout, a stall watchdog, a worker-loss
    budget, and whether the executor may *degrade*
    (``shared_memory`` → ``serial``) when the pool keeps failing.
    ``policy=None`` everywhere means the legacy semantics: one attempt,
    the first failure raises (a dead pool worker too).
:class:`PoolSupervisor`
    Runs one pool rung on its own forked workers, one duplex pipe and
    at most one job each: re-schedules failed tasks with backoff,
    quarantines poison tasks after ``max_attempts`` failures instead of
    aborting the grid, and notices a dead worker on its process
    sentinel.  A lost, stalled or timed-out worker is killed and
    re-forked, and only the job it held is re-dispatched.  Workers
    share no lock with the parent, so killing one can never wedge the
    others or the teardown.
:func:`supervised_serial`
    The same retry/quarantine contract for in-process execution — the
    bottom rung of the degradation ladder and the serial executor.

The run's engine records are defined here, once: the resilience events
(:class:`JobRetried`, :class:`JobQuarantined`, :class:`WorkerLost`,
:class:`ExecutorDegraded`) and :class:`RunWarning`, all subclasses of
the marker base :class:`RunEvent` and frozen dataclasses with JSON-able
fields.  An executor reports each one through the ``emit`` callback its
campaign hands it; the campaign summarizes the resilience events in
``SweepResult.meta["resilience"]``, journals them as
``{"kind": "event", ...}`` lines and forwards every record to its
listener.  :mod:`repro.api.events` imports these classes into the run
event vocabulary, so subscribers receive the engine's own records.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import math
import time
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any

__all__ = [
    "RetryPolicy",
    "RunEvent",
    "RunWarning",
    "JobRetried",
    "JobQuarantined",
    "WorkerLost",
    "ExecutorDegraded",
    "SupervisorGaveUp",
    "PoolSupervisor",
    "supervised_serial",
    "new_stats",
    "note_stats",
    "stats_to_metrics",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic fault-tolerance knobs for campaign execution.

    Parameters
    ----------
    max_attempts:
        Evaluations of one job before it is quarantined (1 = no retry).
    backoff / backoff_factor / max_backoff:
        Delay before attempt ``n+1`` after ``n`` failures is
        ``min(max_backoff, backoff * backoff_factor**(n-1))`` seconds —
        a pure function of the attempt number, so schedules are
        reproducible.
    job_timeout:
        Optional wall-clock budget (seconds) per dispatched job.  A
        worker cannot cancel a running job, so the worker holding an
        expired job is killed and re-forked, and the job is charged one
        failed attempt; the other workers and their jobs are untouched.
    stall_timeout:
        Watchdog: with jobs in flight but no result (and no worker
        death) for this long, every busy worker is presumed hung and
        lost.
    max_rebuilds:
        Worker losses (deaths, stalls) tolerated per rung before the
        supervisor gives up — the signal for the degradation ladder to
        move on.  Losses noticed together count once.  Timeouts are
        bounded by per-job attempts instead and do not count here.
    degrade:
        Whether the pool executor may fall down its ladder
        (``shared_memory`` → ``serial``) when the pool keeps failing.
        With ``False`` the pool's failure raises
        :class:`SupervisorGaveUp`.

    Executors take ``policy=None`` for the legacy semantics instead: one
    attempt, the first failure raises, and a pool worker that dies
    raises :class:`SupervisorGaveUp` naming it.
    """

    max_attempts: int = 3
    backoff: float = 0.25
    backoff_factor: float = 2.0
    max_backoff: float = 30.0
    job_timeout: float | None = None
    stall_timeout: float = 60.0
    max_rebuilds: int = 2
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, "
                             f"got {self.max_attempts}")
        if self.backoff < 0 or self.backoff_factor < 1 or self.max_backoff < 0:
            raise ValueError("backoff must be >= 0, backoff_factor >= 1, "
                             "max_backoff >= 0")
        # a NaN deadline never expires: the timeout would be silently off
        if self.job_timeout is not None \
                and not 0 < self.job_timeout < math.inf:
            raise ValueError(f"job_timeout must be finite and positive or "
                             f"None, got {self.job_timeout}")
        if not 0 < self.stall_timeout < math.inf:
            raise ValueError(f"stall_timeout must be finite and positive, "
                             f"got {self.stall_timeout}")
        if self.max_rebuilds < 0:
            raise ValueError(f"max_rebuilds must be >= 0, "
                             f"got {self.max_rebuilds}")

    def delay_for(self, attempt: int) -> float:
        """Backoff (seconds) before the retry that follows failed
        attempt number ``attempt`` (1-based)."""
        return min(self.max_backoff,
                   self.backoff * self.backoff_factor ** (attempt - 1))


# -- the engine's run events -----------------------------------------------

@dataclass(frozen=True)
class RunEvent:
    """Base class of every streamed run event (useful for isinstance
    gates)."""


@dataclass(frozen=True)
class RunWarning(RunEvent):
    """A non-fatal condition the consumer should surface."""

    message: str


@dataclass(frozen=True)
class JobRetried(RunEvent):
    """One job attempt failed and the job was re-scheduled.

    ``cause`` is ``"error"`` (the job raised) or ``"timeout"`` (its
    wall-clock budget expired); ``attempt`` is the failed attempt
    number; ``delay`` the backoff before the next one.
    """

    point: int
    repeat: int
    attempt: int
    delay: float
    cause: str
    error: str


@dataclass(frozen=True)
class JobQuarantined(RunEvent):
    """A job failed ``attempts`` times and was set aside (its cell
    reports NaN) instead of aborting the campaign."""

    point: int
    repeat: int
    attempts: int
    error: str


@dataclass(frozen=True)
class WorkerLost(RunEvent):
    """Pool workers died (or stalled) and were killed and re-forked; the
    ``in_flight`` jobs they held were re-dispatched without attempt
    charges."""

    reason: str
    in_flight: int


@dataclass(frozen=True)
class ExecutorDegraded(RunEvent):
    """One rung of the executor ladder kept failing; execution moved
    from ``from_mode`` to ``to_mode`` for the remaining jobs."""

    from_mode: str
    to_mode: str
    reason: str


class SupervisorGaveUp(RuntimeError):
    """A pool rung lost workers more often than ``max_rebuilds`` allows
    (or lost one with no policy, or could not fork a worker, or the
    platform has no ``fork`` start method to start the pool with).  The
    degradation ladder catches this to move on; with ``degrade=False``
    or no policy it propagates to the caller."""


def new_stats() -> dict[str, Any]:
    """A fresh per-run resilience summary (mutated by :func:`note_stats`,
    always attached to ``SweepResult.meta["resilience"]`` — zeroed on a
    clean run).  This dict is the backward-compatible *view*; the
    canonical counter store is the run's
    :class:`repro.obs.metrics.MetricsRegistry` (see
    :func:`stats_to_metrics`)."""
    return {"retries": 0, "timeouts": 0, "quarantined": [],
            "workers_lost": 0, "degraded": []}


def note_stats(stats: dict[str, Any], record: object) -> None:
    """Fold one resilience event into a :func:`new_stats` summary."""
    if isinstance(record, JobRetried):
        stats["retries"] += 1
        if record.cause == "timeout":
            stats["timeouts"] += 1
    elif isinstance(record, JobQuarantined):
        coord = (record.point, record.repeat)
        if coord not in stats["quarantined"]:
            stats["quarantined"].append(coord)
    elif isinstance(record, WorkerLost):
        stats["workers_lost"] += 1
    elif isinstance(record, ExecutorDegraded):
        stats["degraded"].append(f"{record.from_mode}->{record.to_mode}")


def stats_to_metrics(stats: dict[str, Any], registry: Any) -> None:
    """Fold one run's :func:`new_stats` summary into a
    :class:`repro.obs.metrics.MetricsRegistry` — the single mapping
    from the legacy dict shape to the canonical telemetry counters
    (``repro_jobs_retried_total`` and friends).  Call once per run with
    the finished summary; the dict itself stays attached to
    ``SweepResult.meta["resilience"]`` as the compatibility view."""
    registry.counter("repro_jobs_retried_total",
                     "job attempts that failed and were "
                     "re-scheduled").inc(int(stats.get("retries", 0)))
    registry.counter("repro_job_timeouts_total",
                     "retries caused by per-job wall-clock "
                     "timeouts").inc(int(stats.get("timeouts", 0)))
    registry.counter("repro_jobs_quarantined_total",
                     "poison jobs set aside after exhausting their "
                     "attempts").inc(len(stats.get("quarantined", ())))
    registry.counter("repro_workers_lost_total",
                     "pool worker losses (deaths, stalls) that forced a "
                     "re-fork").inc(int(stats.get("workers_lost", 0)))
    registry.counter("repro_executor_degraded_total",
                     "rungs the executor ladder fell down "
                     "mid-run").inc(len(stats.get("degraded", ())))


def _grid_coords(task: object) -> tuple[int, int]:
    """``(point, repeat)`` of a campaign job, for event reporting."""
    return (getattr(task, "point_index", -1),
            getattr(task, "repeat_index", -1))


# -- supervised serial execution (bottom rung) -----------------------------

def supervised_serial(tasks: Sequence[Any], call: Callable[[Any], Any],
                      policy: RetryPolicy | None = None, *,
                      on_event: Callable[[RunEvent], None] | None = None,
                      sleep: Callable[[float], None] = time.sleep
                      ) -> Iterator[tuple[Any, tuple[str, Any]]]:
    """Run ``call(task)`` per task with the retry/quarantine contract.

    Yields ``(task, ("ok", value))`` or ``(task, ("quarantined",
    error_repr))`` per task, in task order.  With ``policy=None`` the
    first failure raises (legacy semantics).
    """
    def emit(record: RunEvent) -> None:
        if on_event is not None:
            on_event(record)

    for task in tasks:
        attempt = 1
        while True:
            try:
                value = call(task)
            except Exception as error:
                if policy is None:
                    raise
                point, repeat = _grid_coords(task)
                if attempt >= policy.max_attempts:
                    emit(JobQuarantined(point=point, repeat=repeat,
                                        attempts=attempt, error=repr(error)))
                    yield task, ("quarantined", repr(error))
                    break
                delay = policy.delay_for(attempt)
                emit(JobRetried(point=point, repeat=repeat, attempt=attempt,
                                delay=delay, cause="error",
                                error=repr(error)))
                if delay > 0:
                    sleep(delay)
                attempt += 1
                continue
            yield task, ("ok", value)
            break


# -- pool supervision ------------------------------------------------------

def _serve(conn: Any, parent_end: Any, func: Callable[[Any], Any],
           initializer: Callable[..., object] | None,
           initargs: tuple[Any, ...]) -> None:
    """A forked worker's loop: run the initializer, then answer each task
    read from ``conn`` with ``(True, func(task))`` or ``(False, error)``
    until the stop message (``None``) arrives or the parent is gone.

    The worker first closes its inherited copy of the parent's end of
    its pipe, so that it reads end-of-file once the parent exits.
    """
    parent_end.close()
    if initializer is not None:
        initializer(*initargs)
    try:
        while (task := conn.recv()) is not None:
            try:
                reply = (True, func(task))
            except Exception as error:
                reply = (False, error)
            conn.send(reply)
    except (EOFError, ConnectionError):
        pass  # the parent is gone


class _Worker:
    """One forked worker: its process, the parent's end of its pipe, and
    the job it holds, ``(task_index, attempt, deadline)`` or ``None``
    (the deadline is ``math.inf`` without a ``job_timeout``)."""

    __slots__ = ("process", "conn", "job")

    def __init__(self, process: Any, conn: Any) -> None:
        self.process = process
        self.conn = conn
        self.job: tuple[int, int, float] | None = None


def _reap(worker: _Worker) -> None:
    """Kill and join one worker and close its pipe.  The worker shares no
    lock with the parent, so this cannot hang."""
    worker.process.kill()
    worker.process.join()
    worker.conn.close()


class PoolSupervisor:
    """Fault-tolerant dispatch of one task list onto forked workers.

    Parameters
    ----------
    func:
        Applied to each task in a worker.  Workers are forked, so
        ``func`` and the initializer are inherited, not pickled; tasks,
        results and errors cross each worker's pipe pickled.
    tasks:
        The task list (``None``, the workers' stop message, is not a
        task).  Tasks need not be hashable; identity is by index.
    policy:
        :class:`RetryPolicy`, or ``None`` for legacy semantics: one
        attempt, and the first failure raises — the job's own error, or
        :class:`SupervisorGaveUp` when a worker dies.
    context:
        The ``multiprocessing`` context workers are forked in (the
        engine passes ``get_context("fork")``).
    workers:
        Worker processes to keep; each holds at most one job.
    initializer / initargs:
        ``initializer(*initargs)`` runs in every worker before its first
        job, re-forked workers included.
    on_event:
        Receives :class:`JobRetried` / :class:`JobQuarantined` /
        :class:`WorkerLost` records as they happen.

    Each worker owns one duplex pipe.  Under a policy:

    * a failed job retries with backoff, and is quarantined after
      ``max_attempts`` failures instead of aborting the grid;
    * a job past its ``job_timeout`` costs its worker, which is killed
      and re-forked, and one attempt of the job;
    * a worker whose process sentinel fires (it died) is lost, and so is
      every busy worker once no result has arrived for
      ``stall_timeout``.  A lost worker is killed and re-forked, and
      only the job it held is re-dispatched, at its attempt count.
      Losses noticed together emit one :class:`WorkerLost` and count
      once against ``max_rebuilds``.

    :meth:`run` is a generator yielding ``(task, ("ok", value))`` /
    ``(task, ("quarantined", error_repr))`` as results arrive
    (unordered).  After a :class:`SupervisorGaveUp`, :meth:`unfinished`
    lists the tasks that never produced an outcome — the degradation
    ladder hands exactly those to the next rung.  A complete run sends
    each (idle) worker the stop message; any other exit kills the
    workers.  Both then join them.
    """

    def __init__(self, func: Callable[[Any], Any], tasks: Sequence[Any],
                 policy: RetryPolicy | None = None, *, context: Any,
                 workers: int,
                 initializer: Callable[..., object] | None = None,
                 initargs: tuple[Any, ...] = (),
                 on_event: Callable[[RunEvent], None] | None = None) -> None:
        self._func = func
        self._tasks = list(tasks)
        self.policy = policy
        self._context = context
        self._workers = max(1, workers)
        self._initializer = initializer
        self._initargs = initargs
        self._on_event = on_event
        self._unfinished: set[int] = set(range(len(self._tasks)))

    def unfinished(self) -> list[Any]:
        """Tasks with no outcome yet (for hand-off to the next rung)."""
        return [self._tasks[index] for index in sorted(self._unfinished)]

    def _emit(self, record: RunEvent) -> None:
        if self._on_event is not None:
            self._on_event(record)

    def _fork(self) -> _Worker:
        """Start one worker on a fresh pipe."""
        parent_end, child_end = self._context.Pipe()
        process = self._context.Process(
            target=_serve, daemon=True,
            args=(child_end, parent_end, self._func, self._initializer,
                  self._initargs))
        try:
            process.start()
        except OSError as error:
            parent_end.close()
            raise SupervisorGaveUp(
                f"could not fork a pool worker: {error!r}") from error
        finally:
            child_end.close()
        return _Worker(process, parent_end)

    def run(self) -> Iterator[tuple[Any, tuple[str, Any]]]:
        from multiprocessing.connection import wait  # the pool path only

        policy = self.policy
        timeout = (policy.job_timeout if policy is not None
                   and policy.job_timeout is not None else math.inf)
        todo: deque[tuple[int, int]] = \
            deque((index, 1) for index in range(len(self._tasks)))
        retries: list[tuple[float, int, int, int]] = \
            []                   # heap of (due, tiebreak, task_index, attempt)
        tiebreak = itertools.count()
        workers: list[_Worker] = []
        losses = 0
        completed = False
        try:
            for _ in range(self._workers):
                workers.append(self._fork())
            last_progress = time.monotonic()
            while self._unfinished:
                now = time.monotonic()
                while retries and retries[0][0] <= now:
                    _, _, index, attempt = heapq.heappop(retries)
                    todo.append((index, attempt))
                if all(worker.job is None for worker in workers):
                    last_progress = now  # stalls count only jobs in flight
                for worker in workers:
                    if worker.job is None and todo:
                        index, attempt = todo.popleft()
                        worker.job = (index, attempt, now + timeout)
                        # a worker that died unread is requeued from its
                        # sentinel below
                        with contextlib.suppress(ConnectionError):
                            worker.conn.send(self._tasks[index])
                ready = set(wait(
                    [handle for worker in workers
                     for handle in (worker.conn, worker.process.sentinel)],
                    self._wait_timeout(workers, retries, last_progress)))
                # the sentinel, not end-of-file alone: a process forked at
                # the same moment elsewhere may hold a copy of the pipe
                lost = [worker for worker in workers
                        if worker.process.sentinel in ready]
                for worker in workers:
                    if worker.conn not in ready:
                        continue
                    try:
                        ok, value = worker.conn.recv()
                    except (EOFError, ConnectionError):
                        # it died (unread data turns EOF into a reset);
                        # its sentinel may lag
                        if worker not in lost:
                            lost.append(worker)
                        continue
                    assert worker.job is not None  # one reply per job
                    index, attempt, _ = worker.job
                    worker.job = None
                    last_progress = time.monotonic()
                    if not ok and policy is None:
                        raise value
                    outcome = ("ok", value) if ok else self._attempt_failed(
                        index, attempt, value, retries, tiebreak,
                        cause="error")
                    if outcome is not None:
                        self._unfinished.discard(index)
                        yield self._tasks[index], outcome
                if lost:
                    losses = self._lose(workers, lost, todo, losses)
                    last_progress = time.monotonic()
                if policy is None:
                    continue
                now = time.monotonic()
                for worker in [worker for worker in workers
                               if worker.job is not None
                               and worker.job[2] <= now]:
                    assert worker.job is not None
                    index, attempt, _ = worker.job
                    # a worker cannot cancel its job: replace the worker
                    _reap(worker)
                    workers[workers.index(worker)] = self._fork()
                    last_progress = time.monotonic()
                    outcome = self._attempt_failed(
                        index, attempt,
                        TimeoutError(f"job exceeded its {timeout:g}s "
                                     "wall-clock budget"),
                        retries, tiebreak, cause="timeout")
                    if outcome is not None:
                        self._unfinished.discard(index)
                        yield self._tasks[index], outcome
                busy = [worker for worker in workers if worker.job is not None]
                if busy and now - last_progress >= policy.stall_timeout:
                    losses = self._lose(
                        workers, busy, todo, losses,
                        f"no results for {policy.stall_timeout:g}s with "
                        f"{len(busy)} job(s) in flight")
                    last_progress = time.monotonic()
            completed = True
        finally:
            for worker in workers:
                if completed:  # every worker is idle
                    with contextlib.suppress(ConnectionError):
                        worker.conn.send(None)
                else:
                    worker.process.kill()
            for worker in workers:
                worker.process.join()
                worker.conn.close()

    def _wait_timeout(self, workers: list[_Worker],
                      retries: list[tuple[float, int, int, int]],
                      last_progress: float) -> float | None:
        """Seconds until the next retry falls due, a deadline expires or
        the stall bound passes.  ``None`` (until a result or a death)
        without a policy."""
        policy = self.policy
        if policy is None:
            return None
        held = [worker.job for worker in workers if worker.job is not None]
        due = [deadline for _, _, deadline in held]
        if held:  # the stall bound is finite, so an inf deadline never wins
            due.append(last_progress + policy.stall_timeout)
        if retries:
            due.append(retries[0][0])
        return max(0.0, min(due) - time.monotonic()) if due else None

    def _attempt_failed(self, index: int, attempt: int, error: object,
                        retries: list[tuple[float, int, int, int]],
                        tiebreak: Iterator[int], *, cause: str
                        ) -> tuple[str, Any] | None:
        """Schedule a retry (returns ``None``) or quarantine (returns
        the terminal outcome) after one failed attempt."""
        policy = self.policy
        assert policy is not None  # callers gate on a configured policy
        point, repeat = _grid_coords(self._tasks[index])
        if attempt >= policy.max_attempts:
            self._emit(JobQuarantined(point=point, repeat=repeat,
                                      attempts=attempt, error=repr(error)))
            return ("quarantined", repr(error))
        delay = policy.delay_for(attempt)
        self._emit(JobRetried(point=point, repeat=repeat, attempt=attempt,
                              delay=delay, cause=cause, error=repr(error)))
        heapq.heappush(retries, (time.monotonic() + delay, next(tiebreak),
                                 index, attempt + 1))
        return None

    def _lose(self, workers: list[_Worker], lost: list[_Worker],
              todo: deque[tuple[int, int]], losses: int,
              reason: str | None = None) -> int:
        """Kill and re-fork the ``lost`` workers and requeue the jobs they
        held at their attempt counts (their jobs pay nothing); the
        losses count once against ``max_rebuilds``.  Returns the new
        loss count.  ``reason`` defaults to the workers' exit codes."""
        for worker in lost:
            _reap(worker)
        if reason is None:
            reason = "; ".join(
                f"worker process {worker.process.pid} died (exit code "
                f"{worker.process.exitcode})" for worker in lost)
        policy = self.policy
        if policy is None:
            raise SupervisorGaveUp(
                f"{reason}, and no retry policy re-dispatches its job; "
                f"{len(self._unfinished)} job(s) unfinished")
        held = [worker.job for worker in lost if worker.job is not None]
        self._emit(WorkerLost(reason=reason, in_flight=len(held)))
        losses += 1
        if losses > policy.max_rebuilds:
            raise SupervisorGaveUp(
                f"workers lost {losses} time(s), more than max_rebuilds="
                f"{policy.max_rebuilds} ({reason}); "
                f"{len(self._unfinished)} job(s) unfinished")
        for index, attempt, _ in held:
            todo.append((index, attempt))
        for worker in lost:
            workers[workers.index(worker)] = self._fork()
        return losses
