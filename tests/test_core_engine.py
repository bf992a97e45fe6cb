"""Tests for the job-based campaign engine (executors, caching, seeding)."""

import ctypes
import multiprocessing
import os

import numpy as np
import pytest

from repro import nn
from repro.binary import QuantDense
from repro.core import (CampaignEvaluator, FaultCampaign, FaultGenerator,
                        FaultInjector, FaultSpec, Semantics, SerialExecutor,
                        SharedMemoryExecutor, build_jobs, get_executor,
                        plan_has_faults)
from repro.core import engine as engine_mod
from repro.core.resilience import RunWarning
from repro.experiments.common import get_mnist, trained_lenet


@pytest.fixture(scope="module")
def trained_setup():
    """A tiny trained BNN on a separable task, with held-out data."""
    rng = np.random.default_rng(0)
    n = 400
    x = rng.choice([-1.0, 1.0], size=(n, 16)).astype(np.float32)
    y = (x[:, :8].sum(axis=1) > 0).astype(int)
    model = nn.Sequential([
        QuantDense(32, input_quantizer="ste_sign", kernel_quantizer="ste_sign"),
        nn.BatchNorm(),
        nn.Sign(),
        QuantDense(2, input_quantizer="ste_sign", kernel_quantizer="ste_sign"),
        nn.BatchNorm(),
    ]).build((16,), seed=0)
    trainer = nn.Trainer(nn.Adam(0.01), seed=0)
    trainer.fit(model, x[:300], y[:300], epochs=25, batch_size=32)
    return model, x[300:], y[300:]


def test_build_jobs_flattens_grid_with_plans(trained_setup):
    model, _, _ = trained_setup
    xs = [0.0, 0.25, 0.5]
    jobs = build_jobs(model, FaultSpec.bitflip, xs, repeats=4, seed=7,
                      rows=8, cols=4)
    assert len(jobs) == len(xs) * 4
    coords = {(job.point_index, job.repeat_index) for job in jobs}
    assert coords == {(i, j) for i in range(3) for j in range(4)}
    for job in jobs:
        assert job.seed == FaultGenerator.job_seed(7, job.point_index,
                                                   job.repeat_index)
        assert job.x_value == xs[job.point_index]
        # plans are pre-generated, one mask set per mapped layer
        assert set(job.plan) == {layer.name for layer in model.layers
                                 if isinstance(layer, QuantDense)}


def test_job_seed_matches_seed_engine_formula():
    assert FaultGenerator.job_seed(3, 2, 5) == 3 + 7919 * 5 + 104729 * 2


def test_plan_has_faults(trained_setup):
    model, _, _ = trained_setup
    empty = build_jobs(model, FaultSpec.bitflip, [0.0], 1, 0, 8, 4)[0].plan
    faulty = build_jobs(model, FaultSpec.bitflip, [0.5], 1, 0, 8, 4)[0].plan
    assert not plan_has_faults(empty)
    assert plan_has_faults(faulty)


def _assert_matches_legacy(model, x, y, spec_factory, xs, repeats, rows,
                           cols, layers=None, backend="float"):
    """The campaign's grid equals the seed engine's loop: attach each
    plan and run ``model.evaluate`` (on float, the oracle backend)."""
    injector = FaultInjector(True)
    legacy = np.zeros((len(xs), repeats))
    for i, x_value in enumerate(xs):
        for j in range(repeats):
            generator = FaultGenerator(spec_factory(x_value), rows=rows,
                                       cols=cols, seed=7919 * j + 104729 * i)
            with injector.injecting(model,
                                    generator.generate(model, layers=layers)):
                legacy[i, j] = model.evaluate(x, y)
    campaign = FaultCampaign(model, x, y, rows=rows, cols=cols,
                             backend=backend)
    result = campaign.run(spec_factory, xs=xs, repeats=repeats, seed=0,
                          layers=layers)
    np.testing.assert_array_equal(result.accuracies, legacy)
    assert result.baseline == model.evaluate(x, y)
    return legacy


def test_engine_matches_legacy_triple_loop(trained_setup):
    """The job engine must reproduce the seed engine's loop bit-for-bit."""
    model, x, y = trained_setup
    _assert_matches_legacy(model, x, y, FaultSpec.bitflip, xs=[0.0, 0.3],
                           repeats=3, rows=8, cols=4)


#: every hook a plan can put on the split layer: output (flips, dynamic
#: flips, stuck-at, faulty lines), kernel (weight stuck-at) and product
LEGACY_FAULTS = {
    "bitflip": FaultSpec.bitflip,
    "bitflip-period3": lambda x: FaultSpec.bitflip(x, period=3),
    "stuck-output": FaultSpec.stuck_at,
    "stuck-weight": lambda x: FaultSpec.stuck_at(
        x, semantics=Semantics.WEIGHT),
    "flip-product": lambda x: FaultSpec.bitflip(
        x, semantics=Semantics.PRODUCT),
    "rows": lambda x: FaultSpec.faulty_rows(round(10 * x)),
    "columns": lambda x: FaultSpec.faulty_columns(round(10 * x)),
}


@pytest.fixture(scope="module")
def lenet_setup():
    _, test = get_mnist()
    test = test.subset(300)
    return trained_lenet(), test.x, test.y


@pytest.mark.parametrize("fault", sorted(LEGACY_FAULTS))
@pytest.mark.parametrize("backend", ["float", "packed"])
@pytest.mark.parametrize("split", ["conv1", "conv2", "dense0"])
def test_engine_matches_legacy_loop_on_lenet(lenet_setup, split, backend,
                                             fault):
    """Starting each cell at the split layer's fault hook (its memoized
    output) or at its memoized derived input (kernel- and product-hooked
    splits) equals attaching the plan and evaluating the whole model."""
    model, x, y = lenet_setup
    legacy = _assert_matches_legacy(
        model, x, y, LEGACY_FAULTS[fault], xs=[0.0, 0.3], repeats=2,
        rows=40, cols=10, layers=[split], backend=backend)
    assert (legacy[1] != legacy[0]).any()  # the faults reached the output


@pytest.mark.parametrize("backend", ["float", "packed"])
def test_engine_matches_legacy_loop_with_biased_dense(backend):
    """The memoized output is the GEMM result before the bias: a biased
    split layer adds its bias after the output hook on every cell."""
    rng = np.random.default_rng(5)
    x = rng.choice([-1.0, 1.0], size=(120, 16)).astype(np.float32)
    y = (x[:, :8].sum(axis=1) > 0).astype(int)
    model = nn.Sequential([
        QuantDense(32, use_bias=True, input_quantizer="ste_sign",
                   kernel_quantizer="ste_sign"),
        nn.BatchNorm(),
        QuantDense(2, input_quantizer="ste_sign", kernel_quantizer="ste_sign"),
    ]).build((16,), seed=0)
    bias = model.layers[0].params["bias"]
    bias[...] = rng.normal(0.0, 3.0, size=bias.shape)
    legacy = _assert_matches_legacy(model, x, y, FaultSpec.bitflip,
                                    xs=[0.0, 0.3], repeats=2, rows=8,
                                    cols=4, backend=backend)
    assert (legacy[1] != legacy[0]).any()


def test_shared_memory_bit_identical_to_serial(trained_setup):
    """The zero-copy shm executor must match serial on both backends."""
    model, x, y = trained_setup
    kwargs = dict(xs=[0.0, 0.2, 0.4], repeats=3, seed=11)
    serial = FaultCampaign(model, x, y, rows=8, cols=4,
                           executor="serial").run(FaultSpec.bitflip, **kwargs)
    for backend in ("float", "packed"):
        campaign = FaultCampaign(model, x, y, rows=8, cols=4,
                                 executor="shared_memory", n_jobs=2,
                                 backend=backend)
        result = campaign.run(FaultSpec.bitflip, **kwargs)
        np.testing.assert_array_equal(serial.accuracies, result.accuracies)
        assert serial.baseline == result.baseline
        assert result.meta["executor"] == "shared_memory"


def test_pool_pickles_neither_evaluator_nor_model(trained_setup,
                                                  monkeypatch):
    """Forked workers inherit the parent's evaluator, so a pool run
    ships neither it nor the model (nor the test set they hold):
    pickling either raises here, and the run still equals serial."""
    model, x, y = trained_setup
    kwargs = dict(xs=[0.0, 0.3], repeats=2, seed=1)
    serial = FaultCampaign(model, x, y, rows=8, cols=4).run(
        FaultSpec.bitflip, **kwargs)

    def refuse(self, protocol):
        raise TypeError(f"pickled a {type(self).__name__}")

    monkeypatch.setattr(CampaignEvaluator, "__reduce_ex__", refuse)
    monkeypatch.setattr(nn.Sequential, "__reduce_ex__", refuse)
    with FaultCampaign(model, x, y, rows=8, cols=4,
                       executor="shared_memory", n_jobs=2) as campaign:
        result = campaign.run(FaultSpec.bitflip, **kwargs)
    np.testing.assert_array_equal(result.accuracies, serial.accuracies)


def test_one_job_grid_runs_serially_with_a_warning(trained_setup):
    """A one-job grid of 7 batches on a 2-worker pool runs the
    in-process loop, says so, and equals serial: a pool task is always
    a whole cell, never a batch shard."""
    model, x, y = trained_setup
    kwargs = dict(xs=[0.35], repeats=1, seed=11)
    serial = FaultCampaign(model, x, y, rows=8, cols=4,
                           batch_size=16).run(FaultSpec.bitflip, **kwargs)
    events = []
    with FaultCampaign(model, x, y, rows=8, cols=4, batch_size=16,
                       executor="shared_memory", n_jobs=2,
                       on_event=events.append) as campaign:
        result = campaign.run(FaultSpec.bitflip, **kwargs)
    np.testing.assert_array_equal(serial.accuracies, result.accuracies)
    assert len(events) == 1 and isinstance(events[0], RunWarning)
    assert "serial" in events[0].message


def test_pool_starts_no_idle_worker(trained_setup, monkeypatch):
    """A 2-job grid on a 4-worker executor forks 2 worker processes."""
    model, x, y = trained_setup
    kwargs = dict(xs=[0.35], repeats=2, seed=11)
    serial = FaultCampaign(model, x, y, rows=8, cols=4).run(
        FaultSpec.bitflip, **kwargs)
    starts = []
    real_get_context = multiprocessing.get_context

    class RecordingContext:
        def __init__(self, context):
            self._context = context

        def __getattr__(self, name):
            return getattr(self._context, name)

        def Process(self, *args, **kwargs):
            starts.append(1)
            return self._context.Process(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method=None:
                        RecordingContext(real_get_context(method)))
    with FaultCampaign(model, x, y, rows=8, cols=4,
                       executor="shared_memory", n_jobs=4) as campaign:
        result = campaign.run(FaultSpec.bitflip, **kwargs)
    np.testing.assert_array_equal(serial.accuracies, result.accuracies)
    assert len(starts) == 2


def _report_blas_threads(job):  # module-level: the pool pickles it
    """Pool task that reports the worker's OpenBLAS thread count as the
    cell's accuracy."""
    return (job.point_index, job.repeat_index,
            float(_openblas_thread_getter()())), (0, 0)


def _openblas_thread_getter():
    """OpenBLAS's ``get_num_threads``, the twin of the setter the engine
    resolves (``None`` where numpy links no OpenBLAS)."""
    setter = engine_mod._blas_thread_setter()
    if setter is None:
        return None
    from numpy._core import _multiarray_umath
    getter = getattr(ctypes.CDLL(_multiarray_umath.__file__),
                     setter.__name__.replace("_set_", "_get_"))
    getter.restype = ctypes.c_int
    return getter


@pytest.mark.parametrize("backend", ["float", "packed"])
def test_pool_workers_pin_blas_threads_on_float(trained_setup, monkeypatch,
                                                backend):
    """Each of 2 forked float workers runs OpenBLAS on half the usable
    CPUs (at least one thread), not on one thread per core; packed
    workers, whose GEMM is the compiled kernel, keep the count they
    inherit."""
    getter = _openblas_thread_getter()
    if getter is None:
        pytest.skip("numpy links no OpenBLAS with a thread setter")
    model, x, y = trained_setup
    jobs = build_jobs(model, FaultSpec.bitflip, [0.3], 4, 0, 8, 4)
    monkeypatch.setattr(engine_mod, "_run_worker_task",
                        _report_blas_threads)
    results = list(SharedMemoryExecutor(n_jobs=2).run_iter(
        jobs, CampaignEvaluator(model, x, y, backend=backend)))
    expected = (max(1, engine_mod._usable_cpus() // 2)
                if backend == "float" else getter())
    assert [accuracy for _, _, accuracy in results] == [expected] * len(jobs)


def test_pool_preserves_caller_caches(trained_setup):
    """Spinning up a pool must not discard the caller's warm memo (mixed
    serial/parallel use would otherwise thrash it)."""
    model, x, y = trained_setup
    # packed backend: dense layers memoize their packed input words (the
    # float dense path derives nothing cacheable)
    evaluator = CampaignEvaluator(model, x, y, backend="packed")
    evaluator.baseline()  # warm prefix activations + the memo
    jobs = build_jobs(model, FaultSpec.bitflip, [0.3], 2, 0, 8, 4)
    evaluator.evaluate_plan(jobs[0].plan)  # warm packed-kernel caches too

    def memo():
        return [(batch, key, rep) for batch, (_, reps)
                in evaluator._memo.items() for key, rep in reps.items()]

    warm = memo()
    assert warm, "test premise: the memo must be warm"
    list(SharedMemoryExecutor(n_jobs=2).run_iter(jobs, evaluator))
    after = memo()
    assert [entry[:2] for entry in after] == [entry[:2] for entry in warm]
    assert all(new[2] is old[2] for new, old in zip(after, warm))


def test_evaluator_snapshot_immune_to_caller_mutation(trained_setup):
    """Mutating the caller's arrays after construction must not desync the
    evaluator's cached prefix activations from its labels/data."""
    model, x, y = trained_setup
    x_arg, y_arg = x.copy(), y.copy()
    evaluator = CampaignEvaluator(model, x_arg, y_arg)
    before = evaluator.baseline()
    rng = np.random.default_rng(99)
    x_arg[:] = rng.choice([-1.0, 1.0], size=x_arg.shape)
    y_arg[:] = 1 - y_arg
    evaluator.clear_caches()  # even recomputation must use the snapshot
    assert evaluator.baseline() == before
    plan = build_jobs(model, FaultSpec.bitflip, [0.3], 1, 5, 8, 4)[0].plan
    fresh = CampaignEvaluator(model, x.copy(), y.copy())
    assert evaluator.evaluate_plan(plan) == fresh.evaluate_plan(plan)


def test_repro_n_jobs_env_default(monkeypatch):
    monkeypatch.setenv("REPRO_N_JOBS", "2")
    assert SharedMemoryExecutor().n_jobs == 2
    monkeypatch.delenv("REPRO_N_JOBS")
    assert SharedMemoryExecutor(3).n_jobs == 3


def test_default_pool_size_reads_the_cpu_affinity(monkeypatch):
    """Under ``taskset -c 0`` on a multi-core host the default pool has
    one worker, not one per host core."""
    monkeypatch.delenv("REPRO_N_JOBS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert SharedMemoryExecutor().n_jobs == 1


def test_executors_stream_results(trained_setup):
    """run_iter yields (point, repeat, accuracy) cells incrementally."""
    model, x, y = trained_setup
    jobs = build_jobs(model, FaultSpec.bitflip, [0.0, 0.3], 2, 0, 8, 4)
    evaluator = CampaignEvaluator(model, x, y)
    expected = {(job.point_index, job.repeat_index) for job in jobs}
    for executor in (SerialExecutor(), SharedMemoryExecutor(n_jobs=2)):
        seen = {(i, j): acc for i, j, acc in
                executor.run_iter(jobs, evaluator)}
        assert set(seen) == expected


def test_float_and_packed_campaigns_bit_identical(trained_setup):
    model, x, y = trained_setup
    kwargs = dict(xs=[0.0, 0.3], repeats=3, seed=5)
    float_result = FaultCampaign(model, x, y, rows=8, cols=4,
                                 backend="float").run(FaultSpec.bitflip,
                                                      **kwargs)
    packed_result = FaultCampaign(model, x, y, rows=8, cols=4,
                                  backend="packed").run(FaultSpec.bitflip,
                                                        **kwargs)
    np.testing.assert_array_equal(float_result.accuracies,
                                  packed_result.accuracies)
    assert float_result.baseline == packed_result.baseline


def test_campaign_restores_model_backend(trained_setup):
    """Campaigns may not permanently re-mode a shared model."""
    model, x, y = trained_setup
    campaign = FaultCampaign(model, x, y, rows=8, cols=4, backend="packed")
    campaign.run(FaultSpec.bitflip, xs=[0.3], repeats=2)
    for layer in model.layers_of_type(QuantDense):
        assert layer.execution_backend == "float"


def test_stale_caches_dropped_after_weight_change(trained_setup):
    """In-place weight updates must invalidate baseline/prefix caches."""
    model, x, y = trained_setup
    state = {key: value.copy() for key, value in model.state_dict().items()}
    try:
        campaign = FaultCampaign(model, x, y, rows=8, cols=4)
        before = campaign.baseline_accuracy()
        assert before == model.evaluate(x, y)
        trainer = nn.Trainer(nn.Adam(0.05), seed=1)
        trainer.fit(model, x, (1 - y), epochs=3, batch_size=32)  # unlearn
        after = campaign.baseline_accuracy()
        assert after == model.evaluate(x, y)
        assert after != before
    finally:
        model.load_state_dict(state)


def test_baseline_computed_once_and_reused(trained_setup, monkeypatch):
    model, x, y = trained_setup
    campaign = FaultCampaign(model, x, y, rows=8, cols=4)
    calls = {"n": 0}
    original = CampaignEvaluator._evaluate_suffix

    def counting(self, split):
        calls["n"] += 1
        return original(self, split)

    monkeypatch.setattr(CampaignEvaluator, "_evaluate_suffix", counting)
    first = campaign.baseline_accuracy()
    assert calls["n"] == 1
    assert campaign.baseline_accuracy() == first
    assert calls["n"] == 1  # cached, not recomputed
    # a run() with only fault-free points adds no further evaluations
    result = campaign.run(FaultSpec.bitflip, xs=[0.0], repeats=4)
    assert calls["n"] == 1
    np.testing.assert_allclose(result.accuracies, first)


def test_rate_zero_point_reuses_baseline_bitwise(trained_setup):
    model, x, y = trained_setup
    campaign = FaultCampaign(model, x, y, rows=8, cols=4)
    result = campaign.run(FaultSpec.bitflip, xs=[0.0, 0.4], repeats=3)
    assert (result.accuracies[0] == result.baseline).all()


def test_evaluator_prefix_cache_is_read_only(trained_setup):
    model, x, y = trained_setup
    evaluator = CampaignEvaluator(model, x, y)
    batches = evaluator._batches_for(0)
    assert all(not z.flags.writeable for z, _ in batches)
    # cached: same objects on the second request
    assert evaluator._batches_for(0)[0][0] is batches[0][0]


def test_get_executor_resolution():
    assert isinstance(get_executor("serial"), SerialExecutor)
    executor = get_executor("shared_memory", n_jobs=3)
    assert isinstance(executor, SharedMemoryExecutor)
    assert executor.n_jobs == 3
    passthrough = SerialExecutor()
    assert get_executor(passthrough) is passthrough
    for name in ("threads", "multiprocessing", "shm"):
        with pytest.raises(ValueError, match="unknown executor"):
            get_executor(name)


def test_unknown_backend_rejected(trained_setup):
    model, x, y = trained_setup
    with pytest.raises(ValueError):
        FaultCampaign(model, x, y, backend="quantum")


def test_campaign_leaves_model_unfaulted(trained_setup):
    model, x, y = trained_setup
    campaign = FaultCampaign(model, x, y, rows=8, cols=4, backend="packed")
    campaign.run(FaultSpec.bitflip, xs=[0.4], repeats=2)
    for layer in model.layers_of_type(QuantDense):
        assert layer.output_fault_hook is None
        assert layer.kernel_fault_hook is None


def test_clear_caches_releases_memoized_state(trained_setup):
    model, x, y = trained_setup
    campaign = FaultCampaign(model, x, y, rows=8, cols=4, backend="packed")
    campaign.run(FaultSpec.bitflip, xs=[0.0, 0.3], repeats=2)
    assert campaign._evaluator._suffix_batches
    assert campaign.input_cache_stats()["entries"] > 0
    campaign.close()
    assert not campaign._evaluator._suffix_batches
    assert campaign._evaluator._baseline is None
    assert not campaign._evaluator._memo
    assert campaign.input_cache_stats() == {
        "hits": 0, "misses": 0, "entries": 0, "bytes": 0, "hit_rate": 0.0}


@pytest.fixture(scope="module")
def residual_setup():
    """An unmapped conv, a BatchNorm, a residual block (the split layer,
    keyed in plans by its conv ``blk_conv``), Flatten and a dense layer;
    50 images in 2 batches."""
    from repro.binary import QuantConv2D
    from repro.models.blocks import ResidualBinaryBlock
    model = nn.Sequential([
        QuantConv2D(8, 3, kernel_quantizer="ste_sign", name="conv"),
        nn.BatchNorm(name="bn"),
        ResidualBinaryBlock(8, name="blk"),
        nn.Flatten(),
        QuantDense(10, input_quantizer="ste_sign",
                   kernel_quantizer="ste_sign", name="fc"),
    ]).build((8, 8, 1), seed=0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 8, 8, 1)).astype(np.float32)
    return model, x, rng.integers(0, 10, 50)


#: plans that hook the GEMM of the block's conv
HOOKING = {
    "weight-stuck": lambda x: FaultSpec.stuck_at(x,
                                                 semantics=Semantics.WEIGHT),
    "product-flip": lambda x: FaultSpec.bitflip(x,
                                                semantics=Semantics.PRODUCT),
}


@pytest.mark.parametrize("fault", sorted(HOOKING))
def test_warm_covers_a_hooked_conv_inside_the_split_block(residual_setup,
                                                          fault):
    """warm() finds the hooked conv in the split block's subtree and
    memoizes its derived input: the next cell misses nothing."""
    model, x, y = residual_setup
    evaluator = CampaignEvaluator(model, x, y, batch_size=25)
    plan = FaultGenerator(HOOKING[fault](0.2), rows=8, cols=4,
                          seed=1).generate(model, layers=["blk_conv"])
    evaluator.warm([plan])
    misses = evaluator.input_cache_stats()["misses"]
    evaluator.evaluate_plan(plan)
    assert evaluator.input_cache_stats()["misses"] == misses


def test_pool_workers_miss_nothing_on_a_hooked_block(residual_setup):
    """The parent warms the block conv's derived input before it forks:
    its baseline and warm pass miss once per batch each, and the
    workers' 8 lookups all hit."""
    model, x, y = residual_setup
    results = []
    for executor, n_jobs in (("serial", None), ("shared_memory", 2)):
        with FaultCampaign(model, x, y, rows=8, cols=4, batch_size=25,
                           executor=executor, n_jobs=n_jobs) as campaign:
            results.append(campaign.run(HOOKING["weight-stuck"],
                                        xs=[0.1, 0.2], repeats=2,
                                        layers=["blk_conv"]))
    serial, pool = results
    np.testing.assert_array_equal(pool.accuracies, serial.accuracies)
    assert [(result.meta["input_cache"]["hits"],
             result.meta["input_cache"]["misses"])
            for result in results] == [(6, 2), (8, 4)]
