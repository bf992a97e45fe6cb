"""The typed request half of the API: what to run, and how.

A :class:`RunRequest` is everything one experiment run needs, in one
validated value: the registry name, its parameters, and the engine
options every workload shares (executor, worker count, inference
backend, cache cap, journal).  Experiment parameters are validated
against the registry entry at submit time; the engine options are
validated here, eagerly, so a malformed request fails before any model
loads.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ApiError

__all__ = ["RunRequest", "EXECUTORS", "BACKENDS"]

#: executor names the engine resolves (see repro.core.engine)
EXECUTORS = ("serial", "shared_memory")
#: inference backends (see repro.binary.layers)
BACKENDS = ("float", "packed")


def _is_int(value) -> bool:
    """An int that is not a bool (JSON ``true`` is not a count)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunRequest:
    """One validated experiment-run request.

    Parameters
    ----------
    experiment:
        Registry name (``repro list`` / :func:`repro.api.experiment_names`).
    params:
        Experiment parameters; values may be CLI strings (coerced
        against the declared :class:`~repro.api.registry.Param` kinds)
        or real Python values.  Unknown names are refused at submit.
    executor / n_jobs / backend / cache_bytes:
        The engine options of :class:`repro.core.FaultCampaign`,
        identical semantics.
    journal:
        JSONL journal path; multi-series experiments derive one sibling
        file per series (``fig4a.jsonl`` → ``fig4a.conv1.jsonl``).
        Refused for experiments that declare no journal support.
    resume:
        Allow continuing existing journal files; without it an existing
        non-empty journal is refused (exit 2 on the CLI), never
        silently overwritten.
    quick:
        Apply the experiment's declared quick overrides (tiny smoke
        sizes) underneath ``params``.
    retries:
        Extra attempts per campaign cell before quarantine (so
        ``retries=2`` means up to 3 attempts).  ``0`` still arms the
        supervision layer — lost workers are re-forked and their cells
        re-dispatched, and the degradation ladder stays armed — it just
        never re-attempts a *failing* job.
    job_timeout:
        Per-cell wall-clock budget in seconds; a cell exceeding it is
        treated as a failed attempt (its worker is killed and re-forked;
        the other workers keep running).  ``None`` disables timeouts.
    degrade:
        Walk the executor degradation ladder (``shared_memory`` →
        ``serial``) when the pool keeps failing; ``False`` raises
        instead (``--no-degrade``).
    """

    experiment: str
    params: Mapping = field(default_factory=dict)
    executor: str = "serial"
    n_jobs: int | None = None
    backend: str = "float"
    cache_bytes: int | None = None
    journal: str | Path | None = None
    resume: bool = False
    quick: bool = False
    retries: int = 2
    job_timeout: float | None = None
    degrade: bool = True

    def __post_init__(self):
        if not self.experiment or not isinstance(self.experiment, str):
            raise ApiError("experiment must be a non-empty registry name")
        if not isinstance(self.params, Mapping):
            raise ApiError(f"params must be a mapping, got "
                           f"{type(self.params).__name__}")
        if isinstance(self.executor, str) and self.executor not in EXECUTORS:
            raise ApiError(f"unknown executor {self.executor!r}; "
                           f"use one of {list(EXECUTORS)}")
        if self.backend not in BACKENDS:
            raise ApiError(f"unknown backend {self.backend!r}; "
                           f"use one of {list(BACKENDS)}")
        if self.n_jobs is not None and (not _is_int(self.n_jobs)
                                        or self.n_jobs < 0):
            raise ApiError(f"n_jobs must be a non-negative int or None, "
                           f"got {self.n_jobs!r}")
        if self.cache_bytes is not None and (
                not _is_int(self.cache_bytes) or self.cache_bytes < 0):
            raise ApiError(f"cache_bytes must be a non-negative int or "
                           f"None, got {self.cache_bytes!r}")
        for flag in ("resume", "quick", "degrade"):
            if not isinstance(getattr(self, flag), bool):
                raise ApiError(f"{flag} must be a bool, got "
                               f"{getattr(self, flag)!r}")
        if self.resume and self.journal is None:
            raise ApiError("resume requires a journal path "
                           "(--journal PATH); nothing to resume")
        if not _is_int(self.retries) or self.retries < 0:
            raise ApiError(f"retries must be a non-negative int, "
                           f"got {self.retries!r}")
        if self.job_timeout is not None and (
                not isinstance(self.job_timeout, (int, float))
                or isinstance(self.job_timeout, bool)
                or not math.isfinite(self.job_timeout)
                or self.job_timeout <= 0):
            raise ApiError(f"job_timeout must be a finite positive number "
                           f"of seconds or None, got {self.job_timeout!r}")

    def engine(self) -> dict:
        """The request's engine options as a JSON-able dict (recorded on
        every :class:`~repro.api.report.RunReport`)."""
        return {
            "executor": self.executor,
            "n_jobs": self.n_jobs,
            "backend": self.backend,
            "cache_bytes": self.cache_bytes,
            "journal": str(self.journal) if self.journal else None,
            "resume": self.resume,
            "quick": self.quick,
            "retries": self.retries,
            "job_timeout": self.job_timeout,
            "degrade": self.degrade,
        }

    def retry_policy(self):
        """The :class:`~repro.core.resilience.RetryPolicy` these options
        arm on the executor."""
        from ..core.resilience import RetryPolicy
        return RetryPolicy(max_attempts=self.retries + 1,
                           job_timeout=self.job_timeout,
                           degrade=self.degrade)
