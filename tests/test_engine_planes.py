"""Pool workers forked from the campaign's warm evaluator: they compute
no prefix, and no run path creates a shared-memory block."""

import os

import numpy as np
import pytest

from repro import nn
from repro.binary import QuantDense
from repro.core import (CampaignEvaluator, FaultCampaign, FaultSpec,
                        SerialExecutor, SharedMemoryExecutor, build_jobs)
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


def _psm_entries() -> set[str] | None:
    """The ``psm_*`` shared-memory blocks in ``/dev/shm`` (``None`` where
    there is no such directory).  Other processes may own some, so tests
    compare against a snapshot rather than against the empty set."""
    if not os.path.isdir("/dev/shm"):
        return None
    return {name for name in os.listdir("/dev/shm")
            if name.startswith("psm_")}


# -- workers inherit the warm evaluator -----------------------------------

@pytest.mark.parametrize("backend", ["float", "packed"])
def test_pool_workers_compute_no_prefix(trained_setup, monkeypatch,
                                        backend):
    """Once the parent has warmed its evaluator, a 2-worker run at the
    baseline split equals serial with prefix computation patched to
    raise: the forked workers inherit the prefix activations and the
    split layer's memoized output, so every worker lookup hits."""
    model, x, y = trained_setup
    jobs = build_jobs(model, FaultSpec.bitflip, [0.0, 0.3], 2, 0, 8, 4)
    serial = list(SerialExecutor().run_iter(
        jobs, CampaignEvaluator(model, x, y, batch_size=25, backend=backend)))
    evaluator = CampaignEvaluator(model, x, y, batch_size=25,
                                  backend=backend)
    evaluator.baseline()  # the warm-up the executor runs before forking
    before = evaluator.input_cache_stats()

    def refuse(*args):
        raise AssertionError("a pool worker computed the prefix")

    monkeypatch.setattr(CampaignEvaluator, "_compute_batches", refuse)
    pooled = list(SharedMemoryExecutor(n_jobs=2).run_iter(jobs, evaluator))
    assert sorted(pooled) == sorted(serial)
    after = evaluator.input_cache_stats()
    assert after["misses"] == before["misses"]
    if backend == "packed":
        assert after["hits"] > before["hits"]


def test_parent_warms_every_split_the_jobs_use(trained_setup, tmp_path,
                                              monkeypatch):
    """Plans restricted to the second dense layer split deeper than the
    baseline; the parent computes that prefix before forking, so every
    ``_compute_batches`` call runs in the parent, and the run equals
    serial."""
    model, x, y = trained_setup
    jobs = build_jobs(model, FaultSpec.bitflip, [0.0, 0.3], 2, 0, 8, 4,
                      layers=[model.layers[3].name])
    serial = list(SerialExecutor().run_iter(
        jobs, CampaignEvaluator(model, x, y, batch_size=25)))
    log = tmp_path / "pids"
    compute = CampaignEvaluator._compute_batches

    def logged(self, *args):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return compute(self, *args)

    monkeypatch.setattr(CampaignEvaluator, "_compute_batches", logged)
    pooled = list(SharedMemoryExecutor(n_jobs=2).run_iter(
        jobs, CampaignEvaluator(model, x, y, batch_size=25)))
    assert sorted(pooled) == sorted(serial)
    assert log.read_text().split() == [str(os.getpid())] * 2


# -- no shared-memory block on any path -----------------------------------

def test_pool_run_creates_no_shared_memory(trained_setup):
    model, x, y = trained_setup
    before = _psm_entries()
    with FaultCampaign(model, x, y, rows=8, cols=4, batch_size=25,
                       executor="shared_memory", n_jobs=2) as campaign:
        campaign.run(FaultSpec.bitflip, xs=[0.0, 0.3], repeats=2)
        assert _psm_entries() == before
    assert _psm_entries() == before


def _crash(task):  # module-level: the pool pickles it by reference
    raise RuntimeError("worker died")


def test_planes_released_when_worker_crashes(trained_setup, monkeypatch):
    """A worker failure aborts the run and leaves no shared-memory
    block behind."""
    model, x, y = trained_setup
    before = _psm_entries()
    monkeypatch.setattr(engine_mod, "_run_worker_task", _crash)
    evaluator = CampaignEvaluator(model, x, y, batch_size=25)
    executor = SharedMemoryExecutor(n_jobs=2)
    jobs = build_jobs(model, FaultSpec.bitflip, [0.3, 0.4], 2, 0, 8, 4)
    with pytest.raises(RuntimeError, match="worker died"):
        list(executor.run_iter(jobs, evaluator))
    assert _psm_entries() == before


def test_planes_released_on_keyboard_interrupt(trained_setup):
    """Abandoning the streaming iterator mid-run (the KeyboardInterrupt /
    generator-close path) leaves no shared-memory block, and none
    exists while the stream is open either."""
    model, x, y = trained_setup
    before = _psm_entries()
    evaluator = CampaignEvaluator(model, x, y, batch_size=25)
    executor = SharedMemoryExecutor(n_jobs=2)
    jobs = build_jobs(model, FaultSpec.bitflip, [0.3, 0.4], 3, 0, 8, 4)
    stream = executor.run_iter(jobs, evaluator)
    next(stream)
    assert _psm_entries() == before
    stream.close()  # what an interrupt's stack unwind does to the generator
    assert _psm_entries() == before


# -- derived prefix batches -----------------------------------------------

def test_deeper_split_derived_from_cached_base_is_identical(trained_setup):
    model, x, y = trained_setup
    warm = CampaignEvaluator(model, x, y, batch_size=25)
    warm._batches_for(0)  # e.g. the baseline split a pool's parent warmed
    derived = warm._batches_for(3)
    cold = CampaignEvaluator(model, x, y, batch_size=25)
    scratch = cold._batches_for(3)
    assert len(derived) == len(scratch)
    for (a, la), (b, lb) in zip(derived, scratch):
        assert np.array_equal(a, b)
        assert np.array_equal(la, lb)
