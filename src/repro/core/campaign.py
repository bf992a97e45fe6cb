"""Fault-injection campaigns: sweeps × repetitions × seeds.

"To mitigate the impact of randomly placing the faults on the crossbar, we
performed every experiment hundred times which reinitialized the random
generator with a new seed value." — §IV.  A campaign sweeps one
experimental knob (injection rate, dynamic period, faulty-line count),
repeating each point with fresh seeds, and returns the accuracy samples
for aggregation.

Execution is delegated to :mod:`repro.core.engine`: the sweep grid is
flattened into independent jobs with pre-generated fault plans and run
through a pluggable executor (``serial`` or ``shared_memory``) on a
float or bit-packed inference backend.  All combinations are
bit-identical under fixed seeds.

Campaigns can be **journaled**: ``run(..., journal=path)`` streams every
completed cell into a JSONL file as it arrives, and a rerun with the same
path skips the already-journaled cells — a killed campaign resumes where
it died and reproduces the uninterrupted result exactly
(:mod:`repro.core.journal`).

The campaign owns each run's events.  :meth:`FaultCampaign.run` hands
its executor one ``emit`` callback, which folds the resilience records
(:mod:`repro.core.resilience`) into ``SweepResult.meta["resilience"]``,
journals them, and forwards every record, warnings included, to the
campaign's ``on_event`` listener.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field

import numpy as np

from .. import obs as _obs
from ..binary import bitops
from ..nn.model import Sequential
from .engine import CampaignEvaluator, build_jobs, get_executor
from .faults import FaultSpec
from .generator import check_crossbar, mapped_layers
from .journal import CampaignJournal
from .resilience import (RunEvent, RunWarning, new_stats, note_stats,
                         stats_to_metrics)

__all__ = ["SweepResult", "FaultCampaign"]


def _describe_specs(spec_factory, x) -> list[str]:
    """Stable textual form of the fault spec(s) for sweep value ``x``.

    Journals store this per sweep point so a resume with a different
    fault type or parameterization (e.g. another fixed rate behind the
    same period axis) is refused rather than silently mixed in.
    """
    specs = spec_factory(x)
    if not isinstance(specs, (list, tuple)):
        specs = [specs]
    return [repr(spec) for spec in specs]


@dataclass
class SweepResult:
    """Accuracy samples of one sweep.

    ``accuracies[i, j]`` is the accuracy at sweep point ``xs[i]`` in
    repetition ``j``.
    """

    label: str
    xs: list[float]
    accuracies: np.ndarray
    baseline: float = float("nan")
    meta: dict = field(default_factory=dict)

    def mean(self) -> np.ndarray:
        return self.accuracies.mean(axis=1)

    def std(self) -> np.ndarray:
        """Per-point sample standard deviation (ddof=1).

        The repetitions are a sample of the fault-placement distribution,
        not the full population, so the paper's 100-repetition error bars
        need Bessel's correction.  A single repetition has no spread
        estimate; it reports 0 rather than NaN.
        """
        if self.accuracies.shape[1] <= 1:
            return np.zeros(self.accuracies.shape[0])
        return self.accuracies.std(axis=1, ddof=1)

    def min(self) -> np.ndarray:
        return self.accuracies.min(axis=1)

    def max(self) -> np.ndarray:
        return self.accuracies.max(axis=1)

    def as_rows(self) -> list[tuple[float, float, float]]:
        """(x, mean, std) rows — the series a paper figure plots."""
        return [(x, float(m), float(s))
                for x, m, s in zip(self.xs, self.mean(), self.std())]

    def __repr__(self):
        points = ", ".join(f"{x:g}:{m:.3f}" for x, m in zip(self.xs, self.mean()))
        return f"<SweepResult {self.label} [{points}]>"


class FaultCampaign:
    """Runs accuracy-vs-fault sweeps on a fixed model and dataset.

    Parameters
    ----------
    executor:
        ``"serial"`` (default), ``"shared_memory"``, or an executor
        object: a ``name`` and a ``run_iter(jobs, evaluator, emit,
        obs)`` method streaming ``(point, repeat, accuracy)`` results.
    n_jobs:
        Worker count for the pool executor; ``None`` means the
        ``REPRO_N_JOBS`` environment variable, or else one worker per
        CPU the process may run on (its affinity mask, not the host's
        ``os.cpu_count()``).
    backend:
        ``"float"`` or ``"packed"`` — see :mod:`repro.binary.layers`.
    cache_bytes:
        Byte cap on this campaign's whole per-batch memo: the split
        layer's pre-hook output, or the im2col columns / packed words of
        a kernel- or product-hooked split layer, for each activation
        batch it replays in every repetition (see
        :class:`repro.core.engine.CampaignEvaluator`).  The memo fills
        until the cap and never evicts; ``None`` selects
        :data:`repro.core.engine.DEFAULT_INPUT_CACHE_BYTES` (256 MiB).
    policy:
        A :class:`~repro.core.resilience.RetryPolicy` arming retries,
        per-job timeouts, poison-job quarantine, and the pool's
        degradation to serial.  ``None`` (default) keeps the legacy
        behavior: any job failure aborts the run.
    obs:
        A :class:`repro.obs.Observability` collecting trace spans
        (``campaign → plan → dispatch → evaluate → reduce``) and
        metrics for every :meth:`run`.  ``None`` (default) falls back
        to the ambient instance (:func:`repro.obs.current`) — the api
        layer activates one around each registry experiment — and runs
        fully uninstrumented when there is none.  Telemetry never feeds
        computation: results are bit-identical with or without it.
    on_event:
        The listener of every :meth:`run`: ``on_event(record)`` receives
        each :class:`~repro.core.resilience.RunEvent` the run reports —
        the resilience records (``JobRetried``, ``JobQuarantined``,
        ``WorkerLost``, ``ExecutorDegraded``) and ``RunWarning`` (a
        grid too small for the pool, a resumed journal's torn final
        line).  ``None`` (default) drops them, except the torn-line
        warning, which goes to :func:`warnings.warn`.
    """

    def __init__(self, model: Sequential, x_test: np.ndarray, y_test: np.ndarray,
                 rows: int = 40, cols: int = 10, batch_size: int = 256,
                 continue_time_across_layers: bool = True,
                 executor: str | object = "serial", n_jobs: int | None = None,
                 backend: str = "float", cache_bytes: int | None = None,
                 policy=None, obs=None,
                 on_event: Callable[[RunEvent], None] | None = None):
        check_crossbar(rows, cols)  # before any run opens its journal
        self.obs = obs if obs is not None else _obs.current()
        self.on_event = on_event
        self.model = model
        self.rows = rows
        self.cols = cols
        self.batch_size = batch_size
        self.continue_time = continue_time_across_layers
        self.backend = backend
        self._executor = get_executor(executor, n_jobs, policy)
        self._evaluator = CampaignEvaluator(
            model, x_test, y_test, batch_size=batch_size,
            continue_time_across_layers=continue_time_across_layers,
            backend=backend, cache_bytes=cache_bytes)
        # aliases of the evaluator's snapshot — everything the campaign
        # evaluates or fingerprints is this data, not whatever the
        # caller's arrays hold later
        self.x_test = self._evaluator.x_test
        self.y_test = self._evaluator.y_test

    def __enter__(self) -> "FaultCampaign":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Release this campaign's memoized evaluation state (baseline,
        prefix activations, per-batch memo, sign folds, packed kernels),
        e.g. before discarding the campaign in a long-lived process.
        The process-wide store keeps its one prefix and baseline record
        (:class:`repro.core.engine._PrefixStore`).  Idempotent; also
        usable as a context manager (``with FaultCampaign(...)``).
        """
        self._evaluator.clear_caches()

    def input_cache_stats(self) -> dict:
        """Hit/miss statistics of this campaign's per-batch memo
        (see :meth:`CampaignEvaluator.input_cache_stats`)."""
        return self._evaluator.input_cache_stats()

    def baseline_accuracy(self) -> float:
        """Fault-free accuracy (FLIM with no faults == vanilla).

        Computed once per campaign — the model and test set are fixed at
        construction — and reused by every :meth:`run` (recomputed only if
        the model's weights change in place).  A campaign on the same
        model arithmetic, images, batch size and backend as an earlier
        one of this process adopts that campaign's baseline record
        instead of running the pass (see
        :meth:`CampaignEvaluator.baseline`).
        """
        return self._evaluator.baseline()

    def run(self, spec_factory: Callable[[float], list[FaultSpec] | FaultSpec],
            xs: Sequence[float], repeats: int = 10, seed: int = 0,
            layers: list[str] | None = None, label: str = "sweep",
            journal=None, journal_fsync: bool = False,
            progress: Callable[[int, int, tuple], None] | None = None
            ) -> SweepResult:
        """Sweep ``xs`` through ``spec_factory``, re-seeding per repetition.

        Parameters
        ----------
        spec_factory : callable
            ``spec_factory(x)`` builds the fault spec(s) for sweep value
            ``x`` (e.g. ``lambda rate: FaultSpec.bitflip(rate)``).
        xs : sequence of float
            Sweep points (injection rates, periods, line counts, ...).
        repeats : int
            Repetitions per point (at least one), each with a fresh seed
            (the paper runs 100).
        seed : int
            Base seed.  Each cell's plan seed is the pure function
            ``seed + 7919*repeat + 104729*point`` of its grid coordinates,
            so results are bit-identical across executors, backends,
            scheduling orders, and resumed runs.
        layers : list of str, optional
            Restrict injection to these mapped layers (the paper's
            per-layer resilience study); ``None`` injects into all mapped
            layers (the "combined" curve).
        label : str
            Stored on the returned :class:`SweepResult`.
        journal : path-like, optional
            JSONL file receiving every completed cell as it streams out
            of the executor; cells already recorded there (from an
            interrupted earlier run of the *same* grid — validated via
            header + data/weights fingerprint) are skipped.  Resilience
            events (retries, quarantines, worker losses, degradations)
            are journaled as audit lines alongside the cells; warnings
            are not.
        journal_fsync : bool
            ``os.fsync`` every journal append so it survives OS crashes
            and power loss, not just process kills (slower; off by
            default).
        progress : callable, optional
            ``progress(done, total, (point, repeat, accuracy))`` called
            after each freshly evaluated cell.

        Returns
        -------
        SweepResult
            ``accuracies`` is float64 of shape ``(len(xs), repeats)``;
            ``meta`` records executor/backend, journal bookkeeping and
            input-cache statistics; packed campaigns add ``kernel``, the
            packed GEMM that ran (``"c"`` or ``"numpy"``, see
            :func:`repro.binary.bitops.kernel`).
        """
        if repeats < 1:
            raise ValueError(f"a campaign needs repeats >= 1, got {repeats}")
        xs = list(xs)
        total = len(xs) * repeats
        accuracies = np.zeros((len(xs), repeats), dtype=np.float64)
        resumed = 0
        journal_obj = None
        skip: set[tuple[int, int]] | None = None
        # always attached, zeroed on clean unsupervised runs — consumers
        # (and journaled resumes) can rely on its presence
        resilience = new_stats()
        listener = self.on_event

        def emit(record: RunEvent) -> None:
            note_stats(resilience, record)
            if journal_obj is not None and not isinstance(record,
                                                          RunWarning):
                journal_obj.note(record)
            if listener is not None:
                listener(record)

        if layers is not None:
            # an unknown name raises KeyError here, before any journal
            # opens, not in build_jobs
            mapped_layers(self.model, layers)
        if journal is not None:
            header = {"xs": [float(x) for x in xs], "repeats": repeats,
                      "seed": seed, "rows": self.rows, "cols": self.cols,
                      "layers": list(layers) if layers is not None else None,
                      "backend": self.backend,
                      "continue_time": self.continue_time,
                      "specs": [_describe_specs(spec_factory, x) for x in xs],
                      "fingerprint": self._fingerprint(),
                      "label": label}
            journal_obj = CampaignJournal(
                journal, header, fsync=journal_fsync,
                on_warning=None if listener is None
                else lambda message: emit(RunWarning(message))).open()
            skip = set()
            for (i, j), accuracy in journal_obj.completed.items():
                if i < len(xs) and j < repeats:
                    accuracies[i, j] = accuracy
                    resumed += 1
                    skip.add((i, j))
        obs = self.obs
        cache_before = (self._evaluator.input_cache_stats()
                        if obs is not None else None)
        stores_before = self._store_counts()
        # loaded before any pool starts, so forked workers inherit it;
        # float campaigns never build or load it
        kernel = bitops.kernel() if self.backend == "packed" else None
        executor_name = self._executor.name
        try:
            with self._span("campaign", label=label, cells=total,
                            executor=executor_name, backend=self.backend), \
                    ExitStack() as tracing:
                if obs is not None and journal_obj is not None:
                    # persist spans closing during this run as
                    # {"kind": "trace"} audit lines next to the cells
                    tracing.enter_context(
                        obs.tracer.sink_to(journal_obj.trace))
                # journaled cells are excluded before plan generation:
                # resuming a nearly finished grid does not regenerate
                # its fault masks
                with self._span("plan"):
                    jobs = build_jobs(self.model, spec_factory, xs,
                                      repeats, seed, self.rows, self.cols,
                                      layers, skip=skip)
                done = resumed
                with self._span("dispatch", jobs=len(jobs)):
                    for i, j, accuracy in self._executor.run_iter(
                            jobs, self._evaluator, emit, obs):
                        accuracies[i, j] = accuracy
                        done += 1
                        if journal_obj is not None and accuracy == accuracy:
                            # quarantined (NaN) cells stay un-journaled
                            # so a resumed run re-attempts them
                            journal_obj.record(i, j, xs[i], accuracy)
                        if progress is not None:
                            progress(done, total, (i, j, accuracy))
                with self._span("reduce"):
                    meta = {"rows": self.rows, "cols": self.cols,
                            "repeats": repeats, "layers": layers,
                            "executor": executor_name,
                            "backend": self.backend,
                            "input_cache":
                                self._evaluator.input_cache_stats()}
                    if kernel is not None:
                        meta["kernel"] = kernel.name
                    meta["resilience"] = resilience
                    if journal is not None:
                        meta["journal"] = str(journal)
                        meta["resumed_cells"] = resumed
                    # before the fold: a fully resumed run looks its
                    # prefix and baseline record up here
                    baseline = self.baseline_accuracy()
                    if obs is not None:
                        self._fold_metrics(meta, cache_before, stores_before,
                                           done - resumed, resumed, kernel)
                    result = SweepResult(
                        label=label, xs=xs, accuracies=accuracies,
                        baseline=baseline, meta=meta)
        finally:
            if journal_obj is not None:
                journal_obj.close()
        return result

    def _span(self, name: str, **attrs):
        """A tracer span when this campaign is observed, else a no-op."""
        if self.obs is None:
            return nullcontext()
        return self.obs.tracer.span(name, **attrs)

    def _store_counts(self) -> dict[str, dict]:
        """Copies of the evaluator's lookup counts of the process-wide
        store: its prefix and its baseline record."""
        return {"prefix": dict(self._evaluator.prefix_store_counts),
                "baseline": dict(self._evaluator.baseline_store_counts)}

    def _fold_metrics(self, meta: dict, cache_before: dict,
                      stores_before: dict, evaluated: int, resumed: int,
                      kernel) -> None:
        """Fold this run's meta and process-wide store lookups into the
        campaign's metrics registry.

        Counters take per-run deltas (the evaluator's cache stats are
        cumulative across a campaign's runs); gauges take the latest
        value.  The legacy ``meta`` dicts stay attached unchanged — the
        registry is the canonical store, ``meta`` the compatibility
        view.
        """
        registry = self.obs.metrics
        registry.counter(
            "repro_cells_evaluated_total",
            "grid cells freshly evaluated").inc(max(0, evaluated))
        registry.counter(
            "repro_cells_resumed_total",
            "grid cells replayed from a journal").inc(max(0, resumed))
        cache = meta["input_cache"]
        hits = max(0, cache["hits"] - cache_before["hits"])
        misses = max(0, cache["misses"] - cache_before["misses"])
        registry.counter("repro_input_cache_hits_total",
                         "per-batch memo hits (split-layer outputs and "
                         "derived inputs)").inc(hits)
        registry.counter("repro_input_cache_misses_total",
                         "per-batch memo misses (split-layer outputs and "
                         "derived inputs)").inc(misses)
        lookups = hits + misses
        registry.gauge(
            "repro_input_cache_hit_rate",
            "per-batch memo hit rate, last run").set(
                hits / lookups if lookups else 0.0)
        registry.gauge("repro_input_cache_bytes",
                       "bytes pinned by the per-batch memo (split-layer "
                       "outputs and derived inputs)").set(
                           cache.get("bytes", 0))
        what = {"prefix": "fault-free prefix store",
                "baseline": "baseline record store"}
        for store, counts in self._store_counts().items():
            for kind in ("hits", "misses"):
                registry.counter(
                    f"repro_{store}_store_{kind}_total",
                    f"process-wide {what[store]} {kind}").inc(
                        max(0, counts[kind] - stores_before[store][kind]))
        if kernel is not None and kernel.gemm is None:
            registry.counter(
                "repro_kernel_fallback_total",
                "packed campaign runs on the numpy GEMM loop instead of "
                "the compiled kernel", reason=kernel.reason).inc(1)
        stats_to_metrics(meta["resilience"], registry)

    def _fingerprint(self) -> str:
        """SHA-1 digest of the evaluator's test-set snapshot (shape,
        dtype and bytes of ``x_test`` and ``y_test``, hashed once per
        evaluator) and the model weights.

        Journals store it so a resume against a different test set or a
        retrained model is refused instead of silently mixing
        incompatible accuracies into one result.  (Journals written
        before the digest gained the dtype field are refused on resume,
        never silently mixed.)
        """
        digest = self._evaluator.test_set_digest()
        for key, value in sorted(self.model.state_dict().items()):
            digest.update(key.encode())
            digest.update(np.ascontiguousarray(value))
        return digest.hexdigest()
