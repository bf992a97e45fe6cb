"""Controlled failure injection for the campaign executors.

The fault injector injects faults into *models*; this module injects
faults into the *engine running the campaign* — the same inversion
SpikeFI applies at the framework level.  A :class:`ChaosSpec` names the
failures; :class:`ChaosSharedMemoryExecutor` is the real pool executor
with its worker entry points wrapped so those failures happen at
precise grid cells:

* SIGKILL the worker holding cell *k* (a lost worker mid-grid);
* raise once in a worker (a transient evaluation failure → retry);
* raise *every* time a cell is attempted (a poison job → quarantine);
* raise in the pool initializer (broken worker start-up → degradation
  to serial);
* sleep through a cell's wall-clock budget (a stuck worker → timeout).

One-shot failures coordinate across re-forked workers through claim
tokens — ``O_CREAT | O_EXCL`` files in a scratch directory — so exactly
one attempt dies no matter which worker draws the cell or how often
workers are re-forked.  Poison cells carry no token: they fail on every
attempt, which is what makes them poison.

Everything here rides the executor's extension seam
(``_pool_functions``); dispatch, supervision, and recovery logic run
completely unmodified — that is the point.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from ..core import engine as _engine
from ..core.engine import CampaignJob, SharedMemoryExecutor

__all__ = ["ChaosSpec", "ChaosError", "ChaosSharedMemoryExecutor",
           "truncate_last_line"]


class ChaosError(RuntimeError):
    """The injected failure (so tests can tell it from real bugs)."""


@dataclass(frozen=True)
class ChaosSpec:
    """Which failures to inject, and where.

    Cell coordinates are ``(point_index, repeat_index)`` grid tuples.
    ``scratch`` must be a private directory (one per spec — reusing it
    reuses spent claim tokens and the one-shot failures never fire).
    """

    scratch: str
    #: SIGKILL the worker when it draws this cell (once)
    kill_job: tuple[int, int] | None = None
    #: raise ChaosError when a worker draws this cell (once → retry)
    fail_job: tuple[int, int] | None = None
    #: raise ChaosError on *every* attempt of this cell (→ quarantine)
    poison_job: tuple[int, int] | None = None
    #: sleep ``slow_seconds`` in this cell (once → per-job timeout)
    slow_job: tuple[int, int] | None = None
    slow_seconds: float = 5.0
    #: raise in the pool initializer (every worker, every re-fork): each
    #: worker dies at start, which uses up ``max_rebuilds`` and forces
    #: the degradation to serial
    fail_init: bool = False

    def claim(self, tag: str) -> bool:
        """Atomically claim a one-shot failure; True exactly once per
        tag across every process sharing the scratch directory."""
        path = os.path.join(self.scratch, f"{tag}.claimed")
        try:
            os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return False
        return True


#: the worker-process spec, installed by the chaos initializer
_CHAOS: ChaosSpec | None = None


def _chaos_init(chaos: ChaosSpec, *initargs) -> None:
    """Pool initializer: arm the spec, then run the real one."""
    global _CHAOS
    _CHAOS = chaos
    if chaos.fail_init:
        raise ChaosError("injected initializer failure")
    _engine._worker_init(*initargs)


def _chaos_run_task(job: CampaignJob):
    """Fire any failure aimed at this job's cell, then evaluate it."""
    spec = _CHAOS
    coord = (job.point_index, job.repeat_index)
    point, repeat = coord
    if spec.poison_job == coord:
        raise ChaosError(f"injected poison job at {coord}")
    if spec.kill_job == coord and spec.claim(f"kill-{point}-{repeat}"):
        os.kill(os.getpid(), signal.SIGKILL)
    if spec.fail_job == coord and spec.claim(f"fail-{point}-{repeat}"):
        raise ChaosError(f"injected transient failure at {coord}")
    if spec.slow_job == coord and spec.claim(f"slow-{point}-{repeat}"):
        time.sleep(spec.slow_seconds)
    return _engine._run_worker_task(job)


class ChaosSharedMemoryExecutor(SharedMemoryExecutor):
    """:class:`SharedMemoryExecutor` with injected failures."""

    def __init__(self, *args, chaos: ChaosSpec, **kwargs):
        super().__init__(*args, **kwargs)
        self.chaos = chaos

    def _pool_functions(self):
        return partial(_chaos_init, self.chaos), _chaos_run_task


def truncate_last_line(path) -> None:
    """Tear a journal's final line mid-write, the way ``kill -9``
    during an append does (keeps a partial prefix of the line)."""
    path = Path(path)
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    path.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
