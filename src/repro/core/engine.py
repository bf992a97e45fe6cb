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
* the **baseline pass** runs once per process too: beside the stored
  prefix the slot keeps one record of the last pass
  (:class:`_BaselineRecord`: the accuracy, the sign folds' thresholds
  and the split layer's memoized outputs), under the prefix key
  continued with the backend and the arithmetic of every later layer.
  An evaluator whose key matches adopts the record inside
  :meth:`CampaignEvaluator.baseline`, replaying the pass's memo lookups,
  so its baseline, folds, memo and memo counts equal a cold
  evaluator's;
* each job **starts at its fault hook**: FLIM faults the feature map a
  layer has already computed, so the split layer's GEMM result (before
  its output hook and bias) is the same in every job whose plan puts no
  kernel or product hook on it.  That result is memoized per batch,
  read-only, and a job only applies its output hook and runs the layers
  after it.  Where that result is a **popcount map** whose next reader
  is a sign (:func:`popcount_output`: a strictly binary layer with
  K < 2**15, then only max-pooling, ``Flatten`` and BatchNorm), it is
  kept as int16, so the output hook, max-pooling and the sign fold after
  it run on integers (LeNet: conv1, conv2 and dense0; not dense1, which
  feeds argmax).  A kernel- or product-hooked split layer (weight- and
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
  unchanged ``forward`` the boolean sign map, which a quantized layer
  takes as its own sign: float builds the ±1 map from it once, packed
  packs its bits as they are.  Its per-channel thresholds
  are searched, with ``BatchNorm.forward`` as the oracle, by the
  evaluator's first suffix pass (or adopted with a baseline record): on
  a pool that is the parent's baseline before it forks, so the workers
  inherit them.
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
from ..nn.layers import BatchNorm, Flatten, Layer, MaxPool2D
from ..nn.model import Sequential
from ..nn.ops import bipolar_sign
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
    both, as it fails ``bipolar_sign``.

    :meth:`bits` gives that sign as a boolean map, which the next
    quantized layer takes as its own sign (:func:`repro.nn.ops.sign_bits`);
    calling the fold gives it as the ±1 float32 array
    ``bipolar_sign(bn.forward(x))`` is.  Both take a float32 map, or an
    int16 popcount map (every value an integer with ``|x| < 2**15``,
    :func:`popcount_output`), which compares against integer thresholds:
    for an integer x, ``x >= t`` is ``x > ceil(t) - 1``, and clipping
    that bound to int16 keeps every outcome, ``±inf`` and NaN ("never")
    included.  Other dtypes go through ``bn.forward``.

    Use :func:`sign_fold`, which finds each ``t_c`` with ``bn.forward``
    as the oracle.  ``thresholds`` come multiplied by ``negate``.
    """

    def __init__(self, bn: BatchNorm, thresholds: np.ndarray,
                 negate: np.ndarray | None):
        self.bn = bn
        #: ±1 per channel where some gamma is negative, else None:
        #: ``x <= t`` is ``-x >= -t``, and negation is exact
        self.negate = negate
        self.thresholds = thresholds
        never = np.where(np.isnan(thresholds), np.inf, thresholds)
        self._int_thresholds = np.clip(
            np.ceil(never.astype(np.float64)) - 1, -2 ** 15,
            2 ** 15 - 1).astype(np.int16)
        self._int_negate = None if negate is None else negate.astype(
            np.int16)

    def bits(self, x: np.ndarray) -> np.ndarray:
        """``bn.forward(x) >= 0`` as a boolean map."""
        if x.dtype == np.float32:
            if self.negate is not None:
                x = x * self.negate
            return x >= self.thresholds
        if x.dtype == np.int16:
            if self._int_negate is not None:
                x = x * self._int_negate
            return x > self._int_thresholds
        return self.bn.forward(x) >= 0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if x.dtype not in (np.float32, np.int16):
            return self.bn.forward(x)
        return bipolar_sign(self.bits(x))


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
    if not descending.any():
        return SignFold(bn, thresholds, None)
    negate = np.where(descending, np.float32(-1), np.float32(1))
    return SignFold(bn, thresholds * negate, negate)


def _reads_sign(layer: Layer) -> bool:
    """Whether ``layer`` is a quantized layer whose input quantizer is a
    sign (``SteSign`` or ``ApproxSign``): it reads only ``x >= 0``."""
    return (isinstance(layer, QuantLayer)
            and type(layer.input_quantizer) in (SteSign, ApproxSign))


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
        if not (after < len(layers) and _reads_sign(layers[after])):
            continue
        fold = sign_fold(layers[index])
        if fold is not None:
            folds[index] = fold
    return folds


#: layers that keep an integer map's values exact up to the next sign:
#: max-pooling and Flatten keep its dtype, and a BatchNorm (folded, or
#: ``forward`` promoting to float32) sees the values a float32 map has
_INT_SAFE = (MaxPool2D, Flatten, BatchNorm)


def popcount_output(layers: Sequence[Layer], index: int) -> bool:
    """Whether the GEMM output of top-level ``layers[index]`` can be
    memoized as int16: a strictly binary quantized layer with reduction
    length K < 2**15 (every value, and every stuck-at rail ``±K``, is an
    exact integer in int16), followed by nothing but max-pooling,
    ``Flatten`` and BatchNorm up to a layer that reads only the sign."""
    layer = layers[index]
    if not (isinstance(layer, QuantLayer)
            and getattr(layer.input_quantizer, "strictly_binary", False)
            and getattr(layer.kernel_quantizer, "strictly_binary", False)
            and layer.reduction_length() < 2 ** 15):
        return False
    for after in layers[index + 1:]:
        if type(after) not in _INT_SAFE:
            return _reads_sign(after)
    return False


# -- the process-wide prefix store ------------------------------------------

def _hash_array(digest, array: np.ndarray) -> None:
    """Feed ``array``'s shape, dtype and C-order bytes into ``digest``."""
    digest.update(str(array.shape).encode())
    digest.update(str(array.dtype).encode())
    digest.update(np.ascontiguousarray(array))


#: a quantized layer's fault hooks
_HOOKS = ("kernel_fault_hook", "output_fault_hook", "product_fault_hook")

#: attributes a store key leaves out: ``build_lenet`` leaves its pooling
#: and Flatten layers unnamed, so their auto names change with every
#: build, and the rest do not change what a fault-free pass computes (a
#: hooked model keeps no baseline record, and a baseline record's key
#: names its backend)
_UNKEYED = frozenset({"name", "built", "trainable", "execution_backend",
                      *_HOOKS})


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


@dataclass(frozen=True)
class _BaselineRecord:
    """What one fault-free baseline pass found, for the next evaluator on
    the same model arithmetic, test set, batch size and backend."""

    #: the baseline accuracy
    accuracy: float
    #: top-level index -> (thresholds, negate) of each :class:`SignFold`
    folds: dict[int, tuple[np.ndarray, np.ndarray | None]]
    #: per stored prefix batch, the memo lookups the pass made, in order:
    #: (position in ``model.all_layers()``, tag, the entry)
    lookups: tuple[tuple[tuple[int, str, np.ndarray], ...], ...]


class _PrefixStore:
    """One process-wide slot: the last fault-free prefix computed, and
    one baseline record beside it.

    It holds the read-only activation batches of one test set after the
    layers before one model's first mapped layer, under a digest of
    their content (:meth:`CampaignEvaluator._prefix_key`), so campaigns
    on equal weights and images share them however often the model is
    rebuilt.  Only activations are kept; each evaluator pairs them with
    its own labels.  A lookup under another key drops the slot before
    the caller computes its replacement, so at most one prefix is
    retained.  Two threads missing the same key both compute it, with
    equal results.

    Beside that prefix the slot keeps one :class:`_BaselineRecord`
    under a key that continues the prefix key with the backend and the
    layers after the prefix (:meth:`CampaignEvaluator._record_keys`).
    A record under another key replaces it; a new prefix drops it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._slot: tuple[bytes, tuple[np.ndarray, ...]] | None = None
        self._record: tuple[bytes, _BaselineRecord] | None = None

    def lookup(self, key: bytes) -> tuple[np.ndarray, ...] | None:
        """The batches stored under ``key``; on a miss, ``None`` after
        the slot and its record are emptied."""
        with self._lock:
            if self._slot is not None and self._slot[0] == key:
                return self._slot[1]
            self._slot = self._record = None
            return None

    def store(self, key: bytes, batches: tuple[np.ndarray, ...]) -> None:
        with self._lock:
            if self._slot is None or self._slot[0] != key:
                self._record = None
            self._slot = (key, batches)

    def record(self, key: bytes) -> _BaselineRecord | None:
        """The baseline record stored under ``key``, or ``None``."""
        with self._lock:
            if self._record is not None and self._record[0] == key:
                return self._record[1]
            return None

    def keep(self, prefix_key: bytes, key: bytes,
             record: _BaselineRecord) -> None:
        """Keep ``record`` under ``key`` if the slot still holds the
        prefix stored under ``prefix_key``."""
        with self._lock:
            if self._slot is not None and self._slot[0] == prefix_key:
                self._record = (key, record)

    def clear(self) -> None:
        with self._lock:
            self._slot = self._record = None


_PREFIX_STORE = _PrefixStore()


def _subtree(layer) -> Iterator[Layer]:
    """``layer``, then its sub-layers, depth first."""
    yield layer
    for child in layer.sub_layers():
        yield from _subtree(child)


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
        #: lookups of the baseline record beside it
        self.baseline_store_counts = {"hits": 0, "misses": 0}
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
        #: the top-level layers whose ``"output"`` entries are int16
        #: (:func:`popcount_output`)
        self._popcount_layers: set[Layer] | None = None
        #: split -> :meth:`_prefix_key`, hashed once per weights version
        self._prefix_keys: dict[int, bytes] = {}
        self._weights_version = getattr(model, "weights_version", None)

    def _check_weights_version(self) -> None:
        """Drop caches when the model's parameters changed in place."""
        version = getattr(self.model, "weights_version", None)
        if version != self._weights_version:
            self.clear_caches()
            self._weights_version = version

    def clear_caches(self) -> None:
        """Release every memoized evaluation artifact — the baseline, the
        prefix activation batches and their store keys, the per-batch
        memo and the sign folds' thresholds — and the model's per-layer
        scratch state (packed kernels).  The process-wide store's prefix
        and baseline record stay (:class:`_PrefixStore`); a changed
        weight changes their keys."""
        self._baseline = None
        self._folds = None
        self._popcount_layers = None
        self._prefix_keys.clear()
        self._suffix_batches.clear()
        self._memo.clear()
        self._memo_counts = dict.fromkeys(self._memo_counts, 0)
        for layer in self.model.all_layers():
            if hasattr(layer, "_invalidate_caches"):
                layer._invalidate_caches()
            if hasattr(layer, "_cache"):
                layer._cache = None

    @contextmanager
    def _evaluation_scope(self, lookups: list | None = None):
        """Backend + memo scope for one evaluation.

        The quantized layers run on this evaluator's backend and memoize
        through :meth:`_memoized`; both are restored afterwards, so a
        campaign never permanently re-modes a model and a layer outside
        an evaluation memoizes nothing.  With a ``lookups`` list, every
        memo lookup of a replayed batch appends its ``(id(batch), layer,
        tag)``.
        """
        memo = self._memoized
        if lookups is not None:
            def memo(layer, tag, x, derive):
                if id(x) in self._memo:
                    lookups.append((id(x), layer, tag))
                return self._memoized(layer, tag, x, derive)
        lent = [(layer, layer.execution_backend, layer._input_memo)
                for layer in self.model.all_layers()
                if hasattr(layer, "_input_memo")]
        for layer, _, _ in lent:
            layer.execution_backend = self.backend
            layer._input_memo = memo
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
        ``cache_bytes``.  A popcount layer's output is kept as int16
        (:func:`popcount_output`)."""
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
        if tag == "output" and layer in self._popcounts():
            rep = rep.astype(np.int16, copy=False)
            rep.flags.writeable = False
        # an output or word array, or a conv's (array, (oh, ow)) tuple
        nbytes = (rep[0] if isinstance(rep, tuple) else rep).nbytes
        if self._memo_counts["bytes"] + nbytes <= self.cache_bytes:
            reps[key] = rep
            self._memo_counts["bytes"] += nbytes
        return rep

    def _popcounts(self) -> set[Layer]:
        """The top-level layers whose memoized output is int16."""
        if self._popcount_layers is None:
            layers = self.model.layers
            self._popcount_layers = {
                layer for index, layer in enumerate(layers)
                if popcount_output(layers, index)}
        return self._popcount_layers

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
        for index, layer in enumerate(self.model.layers):
            if any(sub.name in names for sub in _subtree(layer)):
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
        computes (:func:`_hash_layer`), never a layer's name.  Hashed
        once per split and weights version."""
        key = self._prefix_keys.get(stop)
        if key is None:
            digest = self.test_set_digest()
            digest.update(f"batch_size={self.batch_size};".encode())
            for layer in self.model.layers[:stop]:
                _hash_layer(digest, layer)
            key = self._prefix_keys[stop] = digest.digest()
        return key

    def _record_keys(self, split: int) -> tuple[bytes, bytes] | None:
        """``(prefix key, baseline record key)`` of a fault-free pass from
        ``split`` on: the record key continues the prefix key with the
        backend and what each layer from ``split`` on computes.  ``None``
        when no prefix is stored (``split`` 0) or a fault hook is
        attached."""
        if split == 0 or any(getattr(layer, hook, None) is not None
                             for layer in self.model.all_layers()
                             for hook in _HOOKS):
            return None
        prefix_key = self._prefix_key(split)
        digest = hashlib.sha1(prefix_key)
        digest.update(f"backend={self.backend};".encode())
        for layer in self.model.layers[split:]:
            _hash_layer(digest, layer)
        return prefix_key, digest.digest()

    def test_set_digest(self):
        """A copy of the sha1 of the test-set snapshot, to continue: the
        shape, dtype and bytes of ``x_test``, then of ``y_test``.
        Hashed once, at construction (the snapshot is read-only)."""
        return self._test_set_digest.copy()

    def _evaluate_suffix(self, split: int) -> float:
        """Accuracy of ``layers[split:]`` over the cached prefix batches,
        each BatchNorm that feeds a sign replaced by its
        :class:`SignFold`, whose boolean map the next layer takes as its
        sign."""
        if self._folds is None:
            self._folds = sign_folds(self.model, self._baseline_split())
        steps = [self._folds[index].bits if index in self._folds
                 else layer.forward
                 for index, layer in enumerate(self.model.layers[split:],
                                               split)]
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
        if the model's weights change in place).

        The pass runs once per process for equal model arithmetic, test
        set, batch size and backend: it leaves a
        :class:`_BaselineRecord` beside the stored prefix, and the next
        evaluator adopts it instead of running the pass, ending with the
        same baseline, sign folds, memo entries and memo counts."""
        self._check_weights_version()
        if self._baseline is None:
            split = self._baseline_split()
            keys = self._record_keys(split)
            record = _PREFIX_STORE.record(keys[1]) if keys else None
            if record is not None:
                self.baseline_store_counts["hits"] += 1
                self._adopt(split, record)
            else:
                lookups = []
                with self._evaluation_scope(lookups):
                    self._baseline = self._evaluate_suffix(split)
                if keys:
                    self.baseline_store_counts["misses"] += 1
                    self._publish(split, keys, lookups)
        return self._baseline

    def _adopt(self, split: int, record: _BaselineRecord) -> None:
        """Take the baseline and sign folds from ``record`` and replay the
        pass's memo lookups: a held entry hits, a missing one misses and
        is kept under ``cache_bytes``, as in the pass."""
        layers = self.model.all_layers()
        for (z, _), made in zip(self._batches_for(split), record.lookups):
            for position, tag, rep in made:
                self._memoized(layers[position], tag, z, lambda rep=rep: rep)
        if self._folds is None:
            self._folds = {index: SignFold(self.model.layers[index], *fold)
                           for index, fold in record.folds.items()}
        self._baseline = record.accuracy

    def _publish(self, split: int, keys: tuple[bytes, bytes],
                 lookups: list) -> None:
        """Store the record of the pass that made ``lookups``, unless the
        memo did not keep some entry they looked up."""
        positions = {id(layer): index for index, layer
                     in enumerate(self.model.all_layers())}
        made = []
        for z, _ in self._suffix_batches[split]:
            reps = self._memo[id(z)][1]
            entries = []
            for batch, layer, tag in lookups:
                if batch == id(z):
                    if (layer, tag) not in reps:
                        return
                    entries.append((positions[id(layer)], tag,
                                    reps[layer, tag]))
            made.append(tuple(entries))
        folds = {index: (fold.thresholds, fold.negate)
                 for index, fold in self._folds.items()}
        _PREFIX_STORE.keep(*keys, _BaselineRecord(self._baseline, folds,
                                                  tuple(made)))

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
                hooked = any(plan[sub.name].hooks_gemm for sub
                             in _subtree(self.model.layers[split])
                             if sub.name in plan)
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
