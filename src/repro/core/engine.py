"""Campaign execution engine: the repeat×sweep grid as independent jobs.

The paper's methodology is brute-force statistical — every accuracy curve
is a sweep of fault rates, each point repeated with fresh seeds, each
repetition a full test-set inference (§IV).  This module turns that grid
into a fast, embarrassingly parallel workload.

Job model
---------
A sweep of ``len(xs)`` points × ``repeats`` repetitions flattens into
``len(xs) * repeats`` independent :class:`CampaignJob` values.  Each job
carries its grid coordinates and a *pre-generated* fault plan — the
expensive mask distribution/mapping runs once, up front, in the parent
process (:func:`build_jobs`), never inside the evaluation loop.  Executors
only evaluate: attach the plan, run the test set, detach, report accuracy.

Seeding scheme
--------------
Job plans are drawn from :meth:`FaultGenerator.job_seed`
(``base_seed + 7919*repeat + 104729*point``), a pure function of the grid
coordinates.  Because plans are generated before any executor runs, every
executor is *bit-identical*: same seeds → same plans → same accuracies,
regardless of scheduling order.

Redundant-work elimination
--------------------------
:class:`CampaignEvaluator` owns every cache a campaign can legally share:

* the fault-free **baseline** accuracy is computed once per evaluator;
* jobs whose plan contains no faulty cell (e.g. the rate-0 sweep point)
  reuse the baseline outright — attaching an all-clear plan wires no
  hooks, so the evaluation would be the baseline bit-for-bit anyway;
* the **fault-free prefix** of the model (every layer before the first
  layer a plan can touch) is evaluated once and its activations are
  cached, batch by batch, as read-only arrays; each job then only runs
  the suffix.  For LeNet this skips the unmapped CMOS conv0 + pooling
  stack — roughly half the inference — in every repetition.  The part
  before the first *mapped* layer is computed once per **process**:
  one process-wide slot (:class:`_PrefixStore`) keeps the last such
  prefix under a content digest of the test set, the batch size and
  those layers' arithmetic, so every campaign on the same model and
  images (every Fig. 4 entry, every service job) starts from the same
  arrays.  Deeper splits stay per evaluator;
* each job **starts at its fault hook**: FLIM faults the feature map a
  layer has already computed, so the split layer's GEMM result (before
  its output hook and bias) is the same in every job whose plan puts no
  kernel or product hook on it.  That result is memoized per batch,
  read-only, and a job only applies its output hook and runs the layers
  after it.  A kernel- or product-hooked split layer (weight- and
  product-level plans) memoizes its **derived input** per batch instead:
  the im2col columns (float) or packed words (packed).  The activation
  batches are *identically the same objects* across jobs, so the memo
  keys on their identity (see :mod:`repro.binary.layers`);
* each **BatchNorm that feeds a sign** runs as one compare per channel
  (:class:`SignFold`).  In a top-level ``BatchNorm → [Flatten] →
  QuantLayer`` chain whose quantized layer's input quantizer is
  ``SteSign`` or ``ApproxSign``, the layer only reads the sign of BN's
  output, and that sign is a step in x because each of BN's four
  float32 operations is monotone in x.  The fold hands the layer's
  unchanged ``forward`` the same ±1 map.  Its per-channel thresholds
  are searched, with ``BatchNorm.forward`` as the oracle, by the
  evaluator's first suffix pass: on a pool that is the parent's
  baseline pass before it forks, so the workers inherit them.
  :meth:`CampaignEvaluator.clear_caches` (a weight change) drops them.
  A BatchNorm with a zero or non-finite gamma or statistic, one that
  feeds argmax (LeNet's bn4) and one followed by any other layer keep
  calling ``forward``;
* each plan's **output flips** are a ±1 vector built once when the plan
  is attached (:func:`repro.core.semantics.flip_signs`); the hook
  multiplies every image by it.

The evaluator takes a **defensive snapshot** of the test set at
construction, and hashes it once: mutating the caller's arrays afterwards
can never desync the cached prefix activations from the data they were
computed on.

Packed vs float execution
-------------------------
``backend="packed"`` switches the quantized layers to the XNOR/popcount
fast path on packed uint64 words — the integer arithmetic the LIM
crossbar natively performs.  The two backends are bit-identical (±1 sums
are exact in float32); layers fall back to float automatically wherever
packed semantics cannot express the computation (product-level hooks,
non-strictly-binary quantizers, ``same`` padding, training).

Executors
---------
``serial``
    In-process loop.  Shares the caller's evaluator and all its caches.
``shared_memory``
    A process pool (by default one worker per CPU the process may run
    on, overridable with the ``REPRO_N_JOBS`` environment variable)
    whose workers share the parent's memory copy-on-write.  The parent
    warms its evaluator — the baseline, the fault-free prefix
    activation batches of every split the pending jobs start at, and
    each split layer's memo entries (its output, or its derived input
    under weight- and product-level plans) — and then *forks* the pool's
    workers: every worker inherits that
    evaluator, test set and caches included, so nothing is pickled,
    copied or published, and no worker recomputes what the parent
    warmed.  The pool always uses the ``fork`` start method, because the
    memo keys on object identity, which only a forked address space
    preserves.

The pool executor *streams* results back through :meth:`run_iter`, so
callers can journal/report progress as cells finish.  Workers write to
their own copy-on-write pages only, so the caller's evaluator keeps its
memo.  Under a :class:`~repro.core.resilience.RetryPolicy` a pool that
keeps failing (or cannot fork) degrades to the serial loop
(``shared_memory → serial``), which computes the same values.

Pool sizing
-----------
Every pool task is one whole cell.  A grid of ``n`` pending jobs forks
``min(n_jobs, n)`` workers, so no worker starts idle; a one-worker
executor or a one-job grid runs the in-process loop instead.  On the
float backend each worker pins numpy's OpenBLAS to
``usable CPUs // workers`` threads (at least one), so BLAS threads do
not oversubscribe the cores.  Both counts read the CPUs the process may
run on (:func:`_usable_cpus`), not the host's.
"""

from __future__ import annotations

import functools
import hashlib
import os
import threading
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..binary.layers import QuantLayer
from ..binary.quantizers import ApproxSign, Quantizer, SteSign
from ..nn.layers import BatchNorm, Flatten, Layer
from ..nn.model import Sequential
from .faults import FaultSpec
from .generator import FaultGenerator, FaultPlan, mapped_layers
from .injector import FaultInjector
from .resilience import (ExecutorDegraded, PoolSupervisor, RetryPolicy,
                         RunEvent, RunWarning, SupervisorGaveUp,
                         supervised_serial)

__all__ = [
    "CampaignJob",
    "CampaignEvaluator",
    "SerialExecutor",
    "SharedMemoryExecutor",
    "build_jobs",
    "get_executor",
    "plan_has_faults",
]

#: default byte cap on one evaluator's whole per-batch memo (split-layer
#: outputs, im2col columns and packed words of the batches it replays),
#: overridable per campaign: ``FaultCampaign(cache_bytes=...)`` or the
#: CLI ``--cache-cap``
DEFAULT_INPUT_CACHE_BYTES = 256 << 20

#: job result: (point index, repeat index, accuracy)
JobResult = tuple[int, int, float]


@dataclass(frozen=True)
class CampaignJob:
    """One (sweep point, repetition) cell of the campaign grid."""

    point_index: int
    repeat_index: int
    x_value: float
    seed: int
    plan: FaultPlan


def plan_has_faults(plan: FaultPlan) -> bool:
    """Whether any mask in the plan marks at least one faulty cell."""
    return any(masks.has_faults for masks in plan.values())


def build_jobs(model: Sequential,
               spec_factory: Callable[[float], list[FaultSpec] | FaultSpec],
               xs: Sequence[float], repeats: int, seed: int,
               rows: int, cols: int,
               layers: list[str] | None = None,
               skip: set[tuple[int, int]] | None = None) -> list[CampaignJob]:
    """Flatten the sweep grid into jobs with pre-generated fault plans.

    Mask generation happens here — outside the evaluation loop, before any
    executor starts — so scheduling order can never affect the plans.
    ``skip`` omits (point, repeat) cells (e.g. already-journaled ones)
    without disturbing the remaining cells' plans: each job's seed is a
    pure function of its own grid coordinates.
    """
    jobs: list[CampaignJob] = []
    for i, x_value in enumerate(xs):
        if skip is not None and all((i, j) in skip for j in range(repeats)):
            continue
        specs = spec_factory(x_value)
        for j in range(repeats):
            if skip is not None and (i, j) in skip:
                continue
            job_seed = FaultGenerator.job_seed(seed, i, j)
            generator = FaultGenerator(specs, rows=rows, cols=cols,
                                       seed=job_seed)
            jobs.append(CampaignJob(
                point_index=i, repeat_index=j, x_value=x_value,
                seed=job_seed, plan=generator.generate(model, layers=layers)))
    return jobs


# -- sign folds -------------------------------------------------------------

#: key of +inf on the float32 key line of :func:`_float_keys` (-inf is at
#: its negation)
_INF_KEY = 0x7F800000

#: half-width, in float32 steps, of the bracket around a channel's
#: analytic threshold; a threshold outside it is bisected
_BRACKET = 32


def _float_keys(x: np.ndarray) -> np.ndarray:
    """int64 keys that order float32 values: ``key(a) < key(b)`` exactly
    when ``a < b``, both zeros at 0 and ``±inf`` at ``±_INF_KEY``."""
    bits = np.asarray(x, dtype=np.float32).view(np.int32).astype(np.int64)
    return np.where(bits < 0, -(bits & 0x7FFFFFFF), bits)


def _key_floats(keys: np.ndarray) -> np.ndarray:
    """The float32 values of :func:`_float_keys` keys (0 is +0.0)."""
    bits = np.where(keys < 0, -keys | 0x80000000, keys)
    return bits.astype(np.uint32).view(np.float32)


class SignFold:
    """``bipolar_sign(bn.forward(x))`` as one compare per channel.

    Inference BatchNorm computes ``x - mean``, ``* inv_std``, ``* gamma``
    and ``+ beta`` in float32, and each operation is monotone in x
    because round-to-nearest is: non-decreasing where gamma_c > 0,
    non-increasing where gamma_c < 0.  With finite statistics and a
    nonzero gamma no x but NaN gives NaN.  So ``BN(x) >= 0``, the sign
    the next layer's input quantizer takes, is a step in x: ``x >= t_c``
    where gamma_c > 0 and ``x <= t_c`` where gamma_c < 0, and NaN fails
    both, as it fails ``bipolar_sign``.  The fold returns the same ±1
    float32 array.

    Use :func:`sign_fold`, which finds each ``t_c`` with ``bn.forward``
    as the oracle.
    """

    def __init__(self, bn: BatchNorm, thresholds: np.ndarray,
                 descending: np.ndarray):
        self.bn = bn
        #: ±1 per channel where some gamma is negative, else None:
        #: ``x <= t`` is ``-x >= -t``, and negation is exact
        self.negate = (np.where(descending, np.float32(-1), np.float32(1))
                       if descending.any() else None)
        self.thresholds = (thresholds if self.negate is None
                           else thresholds * self.negate)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if x.dtype != np.float32:  # the thresholds are float32 inputs
            return self.bn.forward(x)
        if self.negate is not None:
            x = x * self.negate
        out = (x >= self.thresholds).astype(np.float32)
        out *= 2
        out -= 1
        return out


def sign_fold(bn: BatchNorm) -> SignFold | None:
    """``bn``'s :class:`SignFold`, or ``None`` when a gamma is zero or a
    statistic is not finite (BN is then not a step in x).

    Each channel's threshold is searched over float32 bit patterns with
    ``bn.forward`` itself as the oracle, so it is exact by construction.
    One oracle call covers, per channel, ``±inf`` and the
    ``2 * _BRACKET + 1`` floats around the analytic root ``mean - beta /
    (gamma * inv_std)``; a channel whose sign changes outside that
    bracket is bisected between the bracket rows it changes between, all
    such channels in one oracle call per step.
    """
    gamma, beta = bn.params["gamma"], bn.params["beta"]
    mean = bn.running_mean
    # the oracle overflows near ±3.4e38, and so can the root's cast
    with np.errstate(all="ignore"):
        inv_std = 1.0 / np.sqrt(bn.running_var + bn.epsilon)
        if not (np.isfinite(gamma).all() and np.isfinite(beta).all()
                and np.isfinite(mean).all() and np.isfinite(inv_std).all()
                and (gamma != 0).all() and (inv_std > 0).all()):
            return None
        descending = gamma < 0
        root = mean - beta / (gamma.astype(np.float64) * inv_std)
        channels = len(gamma)
        rows = np.clip(_float_keys(root.astype(np.float32))
                       + np.arange(-_BRACKET, _BRACKET + 1)[:, None],
                       -_INF_KEY, _INF_KEY)
        rows = np.concatenate([np.full((1, channels), -_INF_KEY), rows,
                               np.full((1, channels), _INF_KEY)])

        def past(keys: np.ndarray) -> np.ndarray:
            """Whether each key lies past its channel's sign change."""
            return (bn.forward(_key_floats(keys)) >= 0) != descending

        passed = past(rows)  # False, then True, down every column
        change = passed.argmax(axis=0)
        columns = np.arange(channels)
        # the first key past the change is in (lo, hi]; a column never
        # past has change 0, and rows[-1] is +inf
        hi = np.where(passed[-1], rows[change, columns], _INF_KEY + 1)
        lo = np.where(passed[0], -_INF_KEY - 1, rows[change - 1, columns])
        while (open_ := hi - lo > 1).any():
            mid = np.clip((lo + hi) // 2, -_INF_KEY, _INF_KEY)
            now = past(mid[None, :])[0]
            hi = np.where(open_ & now, mid, hi)
            lo = np.where(open_ & ~now, mid, lo)
        # BN(x) >= 0 from hi on (ascending) or up to hi - 1 (descending);
        # a threshold off the key line is "never": NaN, which no x passes
        last = np.where(descending, hi - 1, hi)
        thresholds = np.where(
            np.abs(last) <= _INF_KEY,
            _key_floats(np.clip(last, -_INF_KEY, _INF_KEY)),
            np.float32(np.nan))
    return SignFold(bn, thresholds, descending)


def sign_folds(model: Sequential, start: int = 0) -> dict[int, SignFold]:
    """The :class:`SignFold` of every top-level BatchNorm from
    ``model.layers[start]`` on whose next layer, past any ``Flatten``,
    is a quantized layer with a sign input quantizer (``SteSign`` or
    ``ApproxSign``), keyed by the BatchNorm's index.  That quantizer
    gives the fold's ±1 output the BatchNorm output's signs."""
    layers = model.layers
    folds: dict[int, SignFold] = {}
    for index in range(start, len(layers)):
        if type(layers[index]) is not BatchNorm:
            continue
        after = index + 1
        while after < len(layers) and type(layers[after]) is Flatten:
            after += 1
        if not (after < len(layers) and isinstance(layers[after], QuantLayer)
                and type(layers[after].input_quantizer) in (SteSign,
                                                            ApproxSign)):
            continue
        fold = sign_fold(layers[index])
        if fold is not None:
            folds[index] = fold
    return folds


# -- the process-wide prefix store ------------------------------------------

def _hash_array(digest, array: np.ndarray) -> None:
    """Feed ``array``'s shape, dtype and C-order bytes into ``digest``."""
    digest.update(str(array.shape).encode())
    digest.update(str(array.dtype).encode())
    digest.update(np.ascontiguousarray(array))


#: attributes a prefix key leaves out: ``build_lenet`` leaves its pooling
#: and Flatten layers unnamed, so their auto names change with every
#: build, and the rest do not change what a layer before the first mapped
#: layer computes (no plan hooks it, and it never runs packed)
_UNKEYED = frozenset({"name", "built", "trainable", "execution_backend",
                      "kernel_fault_hook", "output_fault_hook",
                      "product_fault_hook"})


def _hash_layer(digest, obj) -> None:
    """Feed what ``obj`` (a layer or a quantizer) computes into
    ``digest``: its class, its public scalar hyperparameters, its
    quantizers, its parameter and statistic arrays, then its child
    layers."""
    digest.update(type(obj).__qualname__.encode())
    for name, value in sorted(vars(obj).items()):
        if name.startswith("_") or name in _UNKEYED:
            continue
        if isinstance(value, np.ndarray):  # BatchNorm statistics
            digest.update(name.encode())
            _hash_array(digest, value)
        elif isinstance(value, Quantizer):
            digest.update(name.encode())
            _hash_layer(digest, value)
        elif value is None or isinstance(value, (bool, int, float, str,
                                                 np.generic)):
            digest.update(f"{name}={value!r};".encode())
    if isinstance(obj, Layer):
        for name, value in sorted(obj.params.items()):
            digest.update(name.encode())
            _hash_array(digest, value)
        for child in obj.sub_layers():
            _hash_layer(digest, child)


class _PrefixStore:
    """One process-wide slot: the last fault-free prefix computed.

    It holds the read-only activation batches of one test set after the
    layers before one model's first mapped layer, under a digest of
    their content (:meth:`CampaignEvaluator._prefix_key`), so campaigns
    on equal weights and images share them however often the model is
    rebuilt.  Only activations are kept; each evaluator pairs them with
    its own labels.  A lookup under another key drops the slot before
    the caller computes its replacement, so at most one prefix is
    retained.  Two threads missing the same key both compute it, with
    equal results.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._slot: tuple[bytes, tuple[np.ndarray, ...]] | None = None

    def lookup(self, key: bytes) -> tuple[np.ndarray, ...] | None:
        """The batches stored under ``key``; on a miss, ``None`` after
        the slot is emptied."""
        with self._lock:
            if self._slot is not None and self._slot[0] == key:
                return self._slot[1]
            self._slot = None
            return None

    def store(self, key: bytes, batches: tuple[np.ndarray, ...]) -> None:
        with self._lock:
            self._slot = (key, batches)

    def clear(self) -> None:
        with self._lock:
            self._slot = None


_PREFIX_STORE = _PrefixStore()


def _forward(layers, z: np.ndarray) -> np.ndarray:
    """``layers`` at inference on ``z``, as a contiguous read-only
    array."""
    for layer in layers:
        z = layer.forward(z, training=False)
    z = np.ascontiguousarray(z)
    z.flags.writeable = False
    return z


class CampaignEvaluator:
    """Evaluates fault plans on a fixed model + test set, with caching.

    The evaluator snapshots ``x_test``/``y_test`` at construction, marks
    the snapshot read-only and hashes it once
    (:meth:`test_set_digest`), so later caller-side mutations cannot
    silently serve stale prefix activations.

    Cache invalidation keys on ``model.weights_version``, which training
    steps and ``load_state_dict`` bump.  Code that mutates
    ``layer.params[...]`` directly, bypassing those paths, must bump
    ``model.weights_version`` (or call :meth:`clear_caches`) itself —
    the evaluator cannot observe raw in-place array writes.
    """

    def __init__(self, model: Sequential, x_test: np.ndarray,
                 y_test: np.ndarray, batch_size: int = 256,
                 continue_time_across_layers: bool = True,
                 backend: str = "float", cache_bytes: int | None = None):
        if backend not in ("float", "packed"):
            raise ValueError(f"unknown execution backend {backend!r}; "
                             "use 'float' or 'packed'")
        self.model = model
        self.batch_size = batch_size
        self.backend = backend
        #: byte cap on the whole per-batch memo
        self.cache_bytes = (DEFAULT_INPUT_CACHE_BYTES if cache_bytes is None
                            else cache_bytes)
        self.x_test = np.array(x_test)
        self.x_test.flags.writeable = False
        self.y_test = np.array(y_test)
        self.y_test.flags.writeable = False
        if len(self.y_test) == 0:
            raise ValueError("the test set is empty: a campaign needs at "
                             "least one image")
        self._test_set_digest = hashlib.sha1()
        for array in (self.x_test, self.y_test):
            _hash_array(self._test_set_digest, array)
        #: lookups of the process-wide prefix store (:class:`_PrefixStore`)
        self.prefix_store_counts = {"hits": 0, "misses": 0}
        self.injector = FaultInjector(continue_time_across_layers)
        self._baseline: float | None = None
        #: split -> list of (activation batch, label batch)
        self._suffix_batches: dict[int,
                                   list[tuple[np.ndarray, np.ndarray]]] = {}
        #: the per-batch memo: id(batch) -> (batch, {(layer, tag): the
        #: layer's pre-hook output / im2col columns / packed words}) for
        #: every activation batch in ``_suffix_batches`` (holding the
        #: batch keeps its id unique); it fills up to ``cache_bytes`` and
        #: never evicts
        self._memo: dict[int, tuple[np.ndarray, dict]] = {}
        self._memo_counts = {"hits": 0, "misses": 0, "bytes": 0}
        #: top-level index -> the :class:`SignFold` that stands in for
        #: that BatchNorm in every suffix; found by the first suffix pass
        #: (a pool's is the parent's baseline), so forked workers
        #: inherit them
        self._folds: dict[int, SignFold] | None = None
        self._weights_version = getattr(model, "weights_version", None)

    def _check_weights_version(self) -> None:
        """Drop caches when the model's parameters changed in place."""
        version = getattr(self.model, "weights_version", None)
        if version != self._weights_version:
            self.clear_caches()
            self._weights_version = version

    def clear_caches(self) -> None:
        """Release every memoized evaluation artifact — the baseline, the
        prefix activation batches, the per-batch memo and the sign
        folds' thresholds — and the model's per-layer scratch state
        (packed kernels)."""
        self._baseline = None
        self._folds = None
        self._suffix_batches.clear()
        self._memo.clear()
        self._memo_counts = dict.fromkeys(self._memo_counts, 0)
        for layer in self.model.all_layers():
            if hasattr(layer, "_invalidate_caches"):
                layer._invalidate_caches()
            if hasattr(layer, "_cache"):
                layer._cache = None

    @contextmanager
    def _evaluation_scope(self):
        """Backend + memo scope for one evaluation.

        The quantized layers run on this evaluator's backend and memoize
        through :meth:`_memoized`; both are restored afterwards, so a
        campaign never permanently re-modes a model and a layer outside
        an evaluation memoizes nothing.
        """
        lent = [(layer, layer.execution_backend, layer._input_memo)
                for layer in self.model.all_layers()
                if hasattr(layer, "_input_memo")]
        for layer, _, _ in lent:
            layer.execution_backend = self.backend
            layer._input_memo = self._memoized
        try:
            yield
        finally:
            for layer, backend, memo in lent:
                layer.execution_backend = backend
                layer._input_memo = memo

    def _memoized(self, layer, tag: str, x: np.ndarray, derive):
        """``derive()`` — ``layer``'s ``tag`` value for input ``x``: its
        pre-hook output or a derived input — memoized when ``x`` is a
        batch this evaluator replays and the memo still has room under
        ``cache_bytes``."""
        entry = self._memo.get(id(x))
        if entry is None:
            return derive()  # not a replayed batch: memoize nothing
        reps = entry[1]
        key = (layer, tag)
        if key in reps:
            self._memo_counts["hits"] += 1
            return reps[key]
        self._memo_counts["misses"] += 1
        rep = derive()
        # an output or word array, or a conv's (array, (oh, ow)) tuple
        nbytes = (rep[0] if isinstance(rep, tuple) else rep).nbytes
        if self._memo_counts["bytes"] + nbytes <= self.cache_bytes:
            reps[key] = rep
            self._memo_counts["bytes"] += nbytes
        return rep

    def _replay(self, split: int,
                batches: list[tuple[np.ndarray, np.ndarray]]
                ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Keep ``batches`` as the activations of ``split`` and give each
        one a memo slot."""
        self._suffix_batches[split] = batches
        for z, _ in batches:
            if id(z) not in self._memo:
                self._memo[id(z)] = (z, {})
        return batches

    def input_cache_stats(self) -> dict:
        """Hit/miss statistics and footprint of the per-batch memo (split
        layer outputs and derived inputs).

        Returns
        -------
        dict
            ``{"hits", "misses", "entries", "bytes", "hit_rate"}``;
            ``hit_rate`` is ``hits / (hits + misses)`` (0.0 before any
            lookup).  Only lookups of replayed batches count.
        """
        hits, misses = self._memo_counts["hits"], self._memo_counts["misses"]
        return {"hits": hits, "misses": misses,
                "entries": sum(len(reps) for _, reps in self._memo.values()),
                "bytes": self._memo_counts["bytes"],
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0}

    # -- prefix/suffix splitting ----------------------------------------
    def _split_for(self, layer_names) -> int:
        """Index of the first top-level layer whose subtree contains any of
        ``layer_names`` — everything before it is fault-free for sure."""
        names = set(layer_names)

        def contains(layer) -> bool:
            if layer.name in names:
                return True
            return any(contains(child) for child in layer.sub_layers())

        for index, layer in enumerate(self.model.layers):
            if contains(layer):
                return index
        return len(self.model.layers)

    def _baseline_split(self) -> int:
        """The deepest fault-free prefix any plan could share: everything
        before the first mapped layer."""
        mapped = [layer.name for layer in mapped_layers(self.model)]
        return self._split_for(mapped) if mapped else 0

    def _batches_for(self, split: int
                     ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-batch activations after ``layers[:split]``, computed once.

        Batch boundaries match :meth:`Sequential.evaluate`, so suffix
        evaluation is arithmetic-for-arithmetic the full forward pass.
        """
        cached = self._suffix_batches.get(split)
        if cached is None:
            cached = self._replay(split, self._compute_batches(split))
        return cached

    def _compute_batches(self, split: int
                         ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Evaluate prefix activations, continuing from the deepest cached
        shallower split when one exists, else from the process-wide
        prefix store's activations before the first mapped layer — the
        same per-batch arithmetic either way, so results stay
        bit-identical."""
        base_split = max((s for s in self._suffix_batches if s < split),
                         default=None)
        if base_split is None:
            base_split = min(split, self._baseline_split())
            base = self._stored_prefix(base_split)
        else:
            base = self._suffix_batches[base_split]
        layers = self.model.layers[base_split:split]
        return [(_forward(layers, z), labels) for z, labels in base]

    def _stored_prefix(self, stop: int
                       ) -> Iterable[tuple[np.ndarray, np.ndarray]]:
        """``(activations after layers[:stop], labels)`` per test batch.
        The activations come from the process-wide prefix store; on a
        miss they are computed and replace the slot's prefix."""
        step = self.batch_size
        starts = range(0, len(self.x_test), step)
        batches = [self.x_test[start:start + step] for start in starts]
        if stop > 0:
            key = self._prefix_key(stop)
            stored = _PREFIX_STORE.lookup(key)
            if stored is None:
                self.prefix_store_counts["misses"] += 1
                stored = tuple(_forward(self.model.layers[:stop], x)
                               for x in batches)
                _PREFIX_STORE.store(key, stored)
            else:
                self.prefix_store_counts["hits"] += 1
            batches = stored
        return zip(batches, (self.y_test[start:start + step]
                             for start in starts))

    def _prefix_key(self, stop: int) -> bytes:
        """The store key of ``layers[:stop]`` on this test set: its
        digest, continued with the batch size and what each layer
        computes (:func:`_hash_layer`), never a layer's name."""
        digest = self.test_set_digest()
        digest.update(f"batch_size={self.batch_size};".encode())
        for layer in self.model.layers[:stop]:
            _hash_layer(digest, layer)
        return digest.digest()

    def test_set_digest(self):
        """A copy of the sha1 of the test-set snapshot, to continue: the
        shape, dtype and bytes of ``x_test``, then of ``y_test``.
        Hashed once, at construction (the snapshot is read-only)."""
        return self._test_set_digest.copy()

    def _evaluate_suffix(self, split: int) -> float:
        """Accuracy of ``layers[split:]`` over the cached prefix batches,
        each BatchNorm that feeds a sign replaced by its
        :class:`SignFold`."""
        if self._folds is None:
            self._folds = sign_folds(self.model, self._baseline_split())
        steps = [self._folds.get(index, layer.forward) for index, layer
                 in enumerate(self.model.layers[split:], split)]
        correct = 0
        total = 0
        for z, labels in self._batches_for(split):
            out = z
            for step in steps:
                out = step(out)
            correct += int((out.argmax(axis=-1) == labels).sum())
            total += len(labels)
        return correct / total

    # -- public API ------------------------------------------------------
    def baseline(self) -> float:
        """Fault-free accuracy, computed once per evaluator (and again only
        if the model's weights change in place)."""
        self._check_weights_version()
        if self._baseline is None:
            with self._evaluation_scope():
                self._baseline = self._evaluate_suffix(self._baseline_split())
        return self._baseline

    def evaluate_plan(self, plan: FaultPlan) -> float:
        """Accuracy under ``plan`` — bit-identical to attaching the plan
        and running ``model.evaluate`` on the full test set."""
        if not plan_has_faults(plan):
            # an all-clear plan wires no hooks: the run is the baseline
            return self.baseline()
        self._check_weights_version()
        split = self._split_for(plan.keys())
        with self._evaluation_scope(), \
                self.injector.injecting(self.model, plan):
            return self._evaluate_suffix(split)

    def warm(self, plans: Iterable[FaultPlan]) -> None:
        """Fill the caches evaluating ``plans`` reads: the baseline, the
        prefix activation batches of every split a faulty plan starts
        at (shallowest first, so each continues from the last), and the
        split layer's memo entries for each of those batches.  Its output
        is memoized by one run under a plan that leaves its GEMM
        unhooked (the baseline pass already did so at the baseline
        split), its derived input by one run under a plan that hooks it
        (weight- or product-level faults): that input is the same under
        every plan.  A pool's parent calls this before forking, so no
        worker computes a prefix or scores a memo miss."""
        self.baseline()
        warmed = set(self._suffix_batches)
        heads: dict[tuple[int, bool], FaultPlan] = {}
        for plan in plans:
            if plan_has_faults(plan):
                split = self._split_for(plan.keys())
                masks = plan.get(self.model.layers[split].name)
                hooked = masks is not None and masks.hooks_gemm
                heads.setdefault((split, hooked), plan)
        with self._evaluation_scope():
            for split, hooked in sorted(heads):
                if split in warmed and not hooked:
                    continue
                batches = self._batches_for(split)
                with self.injector.injecting(self.model,
                                             heads[split, hooked]):
                    for z, _ in batches:
                        self.model.layers[split].forward(z, training=False)

    def run_job(self, job: CampaignJob) -> JobResult:
        return job.point_index, job.repeat_index, self.evaluate_plan(job.plan)


# -- executors ------------------------------------------------------------

def _cell(job: CampaignJob, outcome: tuple[str, object]) -> JobResult:
    """The cell one supervised outcome fills: the job's result, or NaN
    when the job was quarantined."""
    kind, value = outcome
    if kind == "ok":
        return value
    return job.point_index, job.repeat_index, float("nan")


def _traced_evaluate(call, obs):
    """Wrap a per-job evaluation callable in an ``evaluate`` span.

    Only the in-process loop (the serial executor, and the pool's
    tiny-grid fallback and serial rung) is traced per cell — pool
    workers run in other processes and stay untraced; the parent's
    ``dispatch`` span covers them in aggregate.  Returns ``call``
    unchanged when uninstrumented.
    """
    if obs is None:
        return call

    def traced(job, _call=call, _tracer=obs.tracer):
        with _tracer.span("evaluate", point=job.point_index,
                          repeat=job.repeat_index):
            return _call(job)
    return traced


def _discard(record: RunEvent) -> None:
    """The default ``emit``: nobody listens."""


class SerialExecutor:
    """In-process job loop; shares the caller's evaluator and caches.

    With a :class:`~repro.core.resilience.RetryPolicy` the loop retries
    failed jobs with backoff and quarantines poison jobs (their cells
    yield NaN) under the same contract as the pool executor; with
    ``policy=None`` (the default) the first failure raises.

    An executor holds configuration only.  Its campaign hands each run
    an ``emit`` callback, which receives every resilience record and
    :class:`~repro.core.resilience.RunWarning`, and the run's
    :class:`repro.obs.Observability` (``obs``), which traces the cells
    evaluated in this process.
    """

    name = "serial"

    def __init__(self, policy: RetryPolicy | None = None):
        self.policy = policy

    def run_iter(self, jobs: Sequence[CampaignJob],
                 evaluator: CampaignEvaluator,
                 emit: Callable[[RunEvent], None] = _discard,
                 obs=None) -> Iterator[JobResult]:
        """Stream ``(point, repeat, accuracy)`` per job as it completes,
        in job order (pre-generated plans make order irrelevant to the
        values — only to the streaming sequence)."""
        call = _traced_evaluate(evaluator.run_job, obs)
        for job, outcome in supervised_serial(jobs, call, self.policy,
                                              on_event=emit):
            yield _cell(job, outcome)


_WORKER_EVALUATOR: CampaignEvaluator | None = None


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (``taskset`` and cgroup cpusets narrow it), else
    ``os.cpu_count()``.  Sizes the default pool and its BLAS share."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: numpy's OpenBLAS exports its thread-count setter under one of these
#: names (64-bit-integer builds and scipy-openblas wheels rename it)
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_",
                 "scipy_openblas_set_num_threads",
                 "openblas_set_num_threads64_", "openblas_set_num_threads")


@functools.cache
def _blas_thread_setter() -> Callable[[int], None] | None:
    """The ``set_num_threads`` function of the OpenBLAS numpy runs on,
    or ``None`` when numpy does not link one.

    The lookup goes through numpy's own extension module, whose
    dependencies include the BLAS library it calls.  Resolved once per
    process, and only when a float pool starts.
    """
    import ctypes
    try:
        from numpy._core import _multiarray_umath
        library = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for name in _BLAS_SETTERS:
        setter = getattr(library, name, None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            return setter
    return None


def _worker_init(evaluator: CampaignEvaluator,
                 set_blas_threads: Callable[[int], None] | None,
                 blas_threads: int) -> None:
    """Pool initializer: keep the parent's evaluator and pin BLAS.

    The pool forks, so ``evaluator`` — the parent's own object, with the
    test set, prefix activation batches and per-batch memo the parent
    warmed — is already in this process's memory: the argument
    was inherited, not pickled, and nothing is copied.  With a
    ``set_blas_threads`` setter, the worker runs OpenBLAS on
    ``blas_threads`` threads instead of one per core.
    """
    global _WORKER_EVALUATOR
    _WORKER_EVALUATOR = evaluator
    if set_blas_threads is not None:
        set_blas_threads(blas_threads)


def _run_worker_task(job: CampaignJob):
    """Pool task function: the job's result on the worker's evaluator,
    returned with the ``(hits, misses)`` its memo scored on the job, so
    the parent's statistics count the workers' lookups too."""
    before = dict(_WORKER_EVALUATOR._memo_counts)
    result = _WORKER_EVALUATOR.run_job(job)
    after = _WORKER_EVALUATOR._memo_counts
    return result, (after["hits"] - before["hits"],
                    after["misses"] - before["misses"])


class SharedMemoryExecutor(SerialExecutor):
    """Process-pool executor whose workers share the parent's evaluator.

    Before the pool starts, the parent warms its evaluator: the
    fault-free baseline, the prefix activation batches of every split
    the jobs start at, and each split layer's memo entries.  It then
    forks ``min(n_jobs, len(jobs))`` workers (always the ``fork`` start
    method) and hands each the evaluator through the
    initializer's arguments, which fork inherits instead of pickling:
    workers share the parent's pages copy-on-write, nothing is copied or
    published, and no worker recomputes what the parent warmed.  Each
    task is one whole job carrying only its fault plan, and results
    stream back unordered as they complete, bit-identical to the serial
    executor because plans are pre-generated and the per-batch
    arithmetic is unchanged.

    The workers run under a
    :class:`~repro.core.resilience.PoolSupervisor`, each on its own pipe
    with at most one job.  With a
    :class:`~repro.core.resilience.RetryPolicy`, failed jobs retry with
    backoff and are quarantined (NaN cells) after ``max_attempts``; a
    worker that dies, stalls or overruns its job's timeout is killed and
    re-forked, and only the job it held is re-dispatched; and when
    workers keep dying (or the platform has no ``fork`` start method)
    the executor degrades to the in-process loop it inherits from
    :class:`SerialExecutor` (``shared_memory → serial``), so a campaign
    always completes with bit-identical accuracies for every cell that
    completes anywhere.  ``policy=None`` (the default) keeps the legacy
    semantics: one attempt, the first failure raises, and a lost worker
    raises :class:`~repro.core.resilience.SupervisorGaveUp`.
    """

    name = "shared_memory"

    def __init__(self, n_jobs: int | None = None,
                 policy: RetryPolicy | None = None):
        super().__init__(policy)
        if not n_jobs or n_jobs <= 0:
            n_jobs = int(os.environ.get("REPRO_N_JOBS", 0) or 0)
        self.n_jobs = n_jobs if n_jobs > 0 else _usable_cpus()

    def _pool_functions(self) -> tuple[Callable, Callable]:
        """The pool's ``(initializer, task function)``, looked up late
        from the module globals so tests (and the chaos harness) can
        substitute them."""
        return _worker_init, _run_worker_task

    def run_iter(self, jobs: Sequence[CampaignJob],
                 evaluator: CampaignEvaluator,
                 emit: Callable[[RunEvent], None] = _discard,
                 obs=None) -> Iterator[JobResult]:
        """Stream ``(point, repeat, accuracy)`` results as cells complete.

        Results arrive *unordered* but are bit-identical to the serial
        executor for every cell: plans are pre-generated and the
        per-batch arithmetic is unchanged — which is also why worker
        loss, retries, and degradation to serial can never change a
        value, only where and when it is computed.  A one-worker
        executor, or a grid of at most one job, runs the in-process
        serial loop.  Quarantined jobs yield NaN for their cell.
        """
        jobs = list(jobs)
        workers = min(self.n_jobs, len(jobs))
        if workers <= 1:
            if self.n_jobs > 1 and jobs:
                emit(RunWarning(f"grid of {len(jobs)} job(s) cannot use "
                                f"the {self.n_jobs}-worker pool; falling "
                                "back to the in-process serial loop"))
            yield from super().run_iter(jobs, evaluator, emit, obs)
            return
        degrade = self.policy is not None and self.policy.degrade
        import multiprocessing  # deferred: serial runs never import it
        try:
            # pinned: under any other start method the evaluator would be
            # pickled, and its memo's id() keys would mean nothing
            context = multiprocessing.get_context("fork")
        except ValueError as error:
            reason = f"no fork start method: {error}"
            if not degrade:
                raise SupervisorGaveUp(reason) from error
            emit(ExecutorDegraded(from_mode=self.name, to_mode="serial",
                                  reason=reason))
            yield from super().run_iter(jobs, evaluator, emit, obs)
            return
        # warm once, here: every forked worker inherits the baseline and
        # the prefix activations of every split the jobs start at
        evaluator.warm(job.plan for job in jobs)
        set_blas_threads = None
        if evaluator.backend == "float":
            # not on packed: its GEMM is the compiled kernel, and setting
            # the count starts a BLAS thread that spins in every worker
            set_blas_threads = _blas_thread_setter()
            if set_blas_threads is None:
                emit(RunWarning("no OpenBLAS thread setter found in numpy; "
                                "pool workers keep the BLAS library's "
                                "default threads"))
        initializer, task_fn = self._pool_functions()
        supervisor = PoolSupervisor(
            task_fn, jobs, self.policy, context=context, workers=workers,
            initializer=initializer,
            initargs=(evaluator, set_blas_threads,
                      max(1, _usable_cpus() // workers)),
            on_event=emit)
        stream = supervisor.run()
        done = False
        try:
            for job, (kind, value) in stream:
                if kind == "ok":
                    value, (hits, misses) = value
                    evaluator._memo_counts["hits"] += hits
                    evaluator._memo_counts["misses"] += misses
                yield _cell(job, (kind, value))
            done = True
        except SupervisorGaveUp as failure:
            if not degrade:
                raise
            emit(ExecutorDegraded(from_mode=self.name, to_mode="serial",
                                  reason=str(failure)))
        finally:
            stream.close()
        if not done:
            yield from super().run_iter(supervisor.unfinished(), evaluator,
                                        emit, obs)


_EXECUTORS = {
    "serial": SerialExecutor,
    "shared_memory": SharedMemoryExecutor,
}


def get_executor(executor, n_jobs: int | None = None,
                 policy: RetryPolicy | None = None):
    """Resolve an executor by name ('serial' / 'shared_memory') or pass
    executor objects through.  ``policy`` (a
    :class:`~repro.core.resilience.RetryPolicy`) arms retries, per-job
    timeouts, and degradation to serial; ``None`` keeps the legacy
    raise-on-first-failure behavior."""
    if not isinstance(executor, str):
        return executor
    cls = _EXECUTORS.get(executor)
    if cls is None:
        raise ValueError(f"unknown executor {executor!r}; use 'serial' "
                         "or 'shared_memory'")
    if cls is SerialExecutor:
        return cls(policy=policy)
    return cls(n_jobs, policy=policy)
