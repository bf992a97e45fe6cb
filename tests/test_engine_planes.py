"""Shared-memory activation planes: registry lifecycle, worker adoption,
fingerprint checks, and leak-freedom on crashes/interrupts."""

import numpy as np
import pytest

from repro import nn
from repro.binary import QuantDense
from repro.core import (CampaignEvaluator, FaultCampaign, FaultSpec,
                        SharedMemoryExecutor, SharedPlaneRegistry, build_jobs)
from repro.core import engine as engine_mod


@pytest.fixture(scope="module")
def trained_setup():
    """A tiny trained BNN with enough test data for 12 batches of 25."""
    rng = np.random.default_rng(0)
    n = 600
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
    trainer.fit(model, x[:300], y[:300], epochs=15, batch_size=32)
    return model, x[300:], y[300:]


def _attachable(name: str) -> bool:
    """Whether a shared-memory block with this name still exists."""
    from multiprocessing import shared_memory
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    shm.close()
    return True


# -- SharedPlaneRegistry unit behavior ------------------------------------

def test_registry_publish_attach_roundtrip():
    registry = SharedPlaneRegistry(fingerprint="fp")
    array = np.arange(12, dtype=np.float32).reshape(3, 4)
    descriptor = registry.publish(array, label="demo")
    attacher = SharedPlaneRegistry(fingerprint="fp")
    attached = attacher.attach(descriptor)
    assert np.array_equal(attached, array)
    assert not attached.flags.writeable
    attacher.release()
    registry.release()


def test_registry_attach_refuses_stale_fingerprint():
    registry = SharedPlaneRegistry(fingerprint="old-campaign")
    descriptor = registry.publish(np.zeros(4), label="stale")
    attacher = SharedPlaneRegistry(fingerprint="new-campaign")
    with pytest.raises(ValueError, match="stale shared-memory plane"):
        attacher.attach(descriptor)
    registry.release()


def test_registry_release_unlinks_and_is_idempotent():
    registry = SharedPlaneRegistry(fingerprint="fp")
    descriptor = registry.publish(np.ones(8))
    assert _attachable(descriptor["name"])
    registry.release()
    assert not _attachable(descriptor["name"])
    registry.release()  # second release is a no-op, not an error


def test_registry_finalizer_unlinks_on_gc():
    registry = SharedPlaneRegistry(fingerprint="fp")
    descriptor = registry.publish(np.ones(8))
    name = descriptor["name"]
    del registry  # CPython refcounting fires the finalizer immediately
    assert not _attachable(name)


# -- worker adoption of published planes ----------------------------------

@pytest.fixture
def worker_globals():
    """Snapshot/restore the worker-side module globals the initializer
    mutates, releasing any shared-memory attachments made in between."""
    saved_eval = engine_mod._WORKER_EVALUATOR
    saved_shm = list(engine_mod._WORKER_SHM)
    yield
    for registry in engine_mod._WORKER_SHM:
        if registry not in saved_shm:
            registry.release()
    engine_mod._WORKER_SHM[:] = saved_shm
    engine_mod._WORKER_EVALUATOR = saved_eval


def test_worker_init_adopts_prefix_planes(trained_setup, worker_globals):
    """A worker built from the payload evaluates jobs without ever
    recomputing the fault-free prefix from the test set."""
    model, x, y = trained_setup
    evaluator = CampaignEvaluator(model, x, y, batch_size=25)
    executor = SharedMemoryExecutor(n_jobs=2)
    payload = executor._make_payload(evaluator)
    try:
        engine_mod._worker_init(payload)
        worker = engine_mod._WORKER_EVALUATOR
        split = evaluator._baseline_split()
        assert (split, 0, 1) in worker._suffix_batches
        assert len(worker._suffix_batches[(split, 0, 1)]) == 12
        jobs = build_jobs(model, FaultSpec.bitflip, [0.3], 2, 0, 8, 4)
        for job in jobs:
            worker.run_job(job)
        worker.baseline()
        assert worker.prefix_computations == 0
        # worker results match the parent evaluator bit-for-bit
        assert worker.run_job(jobs[0]) == evaluator.run_job(jobs[0])
    finally:
        executor.release_planes()


def test_worker_init_refuses_stale_planes(trained_setup, worker_globals):
    model, x, y = trained_setup
    evaluator = CampaignEvaluator(model, x, y, batch_size=25)
    executor = SharedMemoryExecutor(n_jobs=2)
    payload = executor._make_payload(evaluator)
    try:
        tampered = dict(payload, planes_fingerprint="someone-elses-campaign")
        with pytest.raises(ValueError, match="stale shared-memory plane"):
            engine_mod._worker_init(tampered)
    finally:
        executor.release_planes()


def test_packed_rep_planes_published(trained_setup, worker_globals):
    """The packed backend publishes the split layer's packed-word planes
    and the worker's first lookup is already a hit."""
    model, x, y = trained_setup
    evaluator = CampaignEvaluator(model, x, y, batch_size=25,
                                  backend="packed")
    executor = SharedMemoryExecutor(n_jobs=2)
    payload = executor._make_payload(evaluator)
    try:
        assert payload["prefix"]["reps"] is not None
        assert len(payload["prefix"]["reps"]) == 12
        engine_mod._worker_init(payload)
        worker = engine_mod._WORKER_EVALUATOR
        jobs = build_jobs(model, FaultSpec.bitflip, [0.3], 1, 0, 8, 4)
        worker.run_job(jobs[0])
        stats = worker.input_cache_stats()
        assert stats["hits"] > 0 and stats["misses"] == 0
    finally:
        executor.release_planes()


# -- executor lifecycle: caching, crashes, interrupts ---------------------

def _plane_names(executor) -> list[str]:
    return [shm.name for shm in executor._registry._owned]


def test_planes_cached_across_runs_and_released_on_close(trained_setup):
    model, x, y = trained_setup
    campaign = FaultCampaign(model, x, y, rows=8, cols=4, batch_size=25,
                             executor="shared_memory", n_jobs=2)
    first = campaign.run(FaultSpec.bitflip, xs=[0.0, 0.3], repeats=2)
    assert first.meta["prefix_plane"]["reused"] is False
    assert first.meta["prefix_plane"]["batches"] == 12
    names = _plane_names(campaign._executor)
    assert names and all(_attachable(name) for name in names)
    second = campaign.run(FaultSpec.bitflip, xs=[0.0, 0.3], repeats=2)
    assert second.meta["prefix_plane"]["reused"] is True
    assert _plane_names(campaign._executor) == names  # same blocks, no copy
    assert np.array_equal(first.accuracies, second.accuracies)
    campaign.close()
    assert not any(_attachable(name) for name in names)
    campaign.close()  # idempotent


def _crash(task):  # module-level: must pickle by reference into workers
    raise RuntimeError("worker died")


def test_planes_released_when_worker_crashes(trained_setup, monkeypatch):
    """A worker failure aborts the run AND unlinks every plane."""
    model, x, y = trained_setup
    monkeypatch.setattr(engine_mod, "_run_worker_task", _crash)
    evaluator = CampaignEvaluator(model, x, y, batch_size=25)
    executor = SharedMemoryExecutor(n_jobs=2)
    jobs = build_jobs(model, FaultSpec.bitflip, [0.3, 0.4], 2, 0, 8, 4)
    with pytest.raises(RuntimeError, match="worker died"):
        executor.run(jobs, evaluator)
    assert executor._registry is None


def test_planes_released_on_keyboard_interrupt(trained_setup):
    """Abandoning the streaming iterator mid-run (the KeyboardInterrupt /
    generator-close path) must not leak psm_* blocks."""
    model, x, y = trained_setup
    evaluator = CampaignEvaluator(model, x, y, batch_size=25)
    executor = SharedMemoryExecutor(n_jobs=2)
    jobs = build_jobs(model, FaultSpec.bitflip, [0.3, 0.4], 3, 0, 8, 4)
    stream = executor.run_iter(jobs, evaluator)
    next(stream)
    names = _plane_names(executor)
    assert names
    stream.close()  # what an interrupt's stack unwind does to the generator
    assert executor._registry is None
    assert not any(_attachable(name) for name in names)


# -- derived prefix batches -----------------------------------------------

def test_sharded_batches_are_views_of_the_full_split(trained_setup):
    model, x, y = trained_setup
    evaluator = CampaignEvaluator(model, x, y, batch_size=25)
    full = evaluator._batches_for(0)
    shard = evaluator._batches_for(0, shard=1, n_shards=2)
    assert all(a is b for (a, _), (b, _) in zip(shard, full[1::2]))


def test_deeper_split_derived_from_cached_base_is_identical(trained_setup):
    model, x, y = trained_setup
    warm = CampaignEvaluator(model, x, y, batch_size=25)
    warm._batches_for(0)  # e.g. adopted planes at the baseline split
    derived = warm._batches_for(3)
    cold = CampaignEvaluator(model, x, y, batch_size=25)
    scratch = cold._batches_for(3)
    assert len(derived) == len(scratch)
    for (a, la), (b, lb) in zip(derived, scratch):
        assert np.array_equal(a, b)
        assert np.array_equal(la, lb)
