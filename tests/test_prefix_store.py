"""The process-wide fault-free prefix store (repro.core.engine) and the
once-per-process weight read (repro.experiments.common)."""

import os
import threading
import weakref

import numpy as np
import pytest

from repro import api
from repro.core import FaultCampaign, FaultSpec, engine
from repro.core.engine import CampaignEvaluator
from repro.experiments.common import get_mnist, trained_lenet
from repro.models import build_lenet
from repro.models.lenet import LENET_MAPPED_LAYERS
from repro.service import wire

#: LeNet's layers before conv1, its first mapped layer: conv0, pool, bn0
BASELINE_SPLIT = 3


@pytest.fixture
def cold_store():
    """An empty prefix slot before the test and after it."""
    engine._PREFIX_STORE.clear()
    yield
    engine._PREFIX_STORE.clear()


def _images(n=800):
    _, test = get_mnist()
    test = test.subset(n)
    return np.array(test.x), np.array(test.y)


def _count_conv0(monkeypatch, model) -> list:
    """Record every call of ``model``'s conv0."""
    conv0 = model.layers[0]
    calls = []
    forward = conv0.forward

    def counted(x, training=False):
        calls.append(len(x))
        return forward(x, training=training)

    monkeypatch.setattr(conv0, "forward", counted)
    return calls


def test_second_model_reuses_the_stored_prefix(cold_store, monkeypatch):
    """Two separately built LeNets on equal image subsets: the second
    campaign never runs conv0 and scores what the cold one scored."""
    x, y = _images()
    cold = FaultCampaign(trained_lenet(), x, y)
    reference = cold.run(FaultSpec.bitflip, xs=[0.0, 0.2], repeats=2)
    warm_model = trained_lenet()
    calls = _count_conv0(monkeypatch, warm_model)
    warm = FaultCampaign(warm_model, x.copy(), y.copy())
    result = warm.run(FaultSpec.bitflip, xs=[0.0, 0.2], repeats=2)
    assert calls == []
    np.testing.assert_array_equal(result.accuracies, reference.accuracies)
    assert result.baseline == reference.baseline
    assert cold._evaluator.prefix_store_counts == {"hits": 0, "misses": 1}
    assert warm._evaluator.prefix_store_counts == {"hits": 1, "misses": 0}


def _changed(what, model, x, y):
    """``(model, x, y, batch_size)`` with one input of the prefix
    changed."""
    batch_size = 256
    if what == "pixel":
        x[3, 14, 14, 0] += 0.25
    elif what == "conv0-kernel":
        model.layers[0].params["kernel"][0, 0, 0, 0] *= -1
    elif what == "bn0-statistic":
        model.layers[2].running_var[1] += 0.5
    elif what == "pool-size":
        model.layers[1].size = 4
    elif what == "conv0-stride":
        model.layers[0].stride = 2
    elif what == "batch-size":
        batch_size = 200
    return model, x, y, batch_size


@pytest.mark.parametrize("what", ["nothing", "pixel", "conv0-kernel",
                                  "bn0-statistic", "pool-size",
                                  "conv0-stride", "batch-size"])
def test_any_change_to_the_prefix_misses(cold_store, monkeypatch, what):
    """A fresh model and a copy of the images hit the stored prefix; one
    changed pixel, weight, statistic, hyperparameter or batch size runs
    conv0 again over every image."""
    x, y = _images()
    CampaignEvaluator(trained_lenet(), x, y)._compute_batches(BASELINE_SPLIT)
    model, x, y, batch_size = _changed(what, trained_lenet(), x.copy(), y)
    calls = _count_conv0(monkeypatch, model)
    evaluator = CampaignEvaluator(model, x, y, batch_size=batch_size)
    evaluator._compute_batches(BASELINE_SPLIT)
    if what == "nothing":
        assert calls == []
        assert evaluator.prefix_store_counts == {"hits": 1, "misses": 0}
    else:
        assert sum(calls) == len(x)
        assert evaluator.prefix_store_counts == {"hits": 0, "misses": 1}


def test_permuted_labels_score_their_own_labels(cold_store):
    """The store keeps activations only: each campaign scores its own
    labels, as the model's plain evaluation does."""
    x, y = _images()
    permuted = np.random.default_rng(0).permutation(y)
    model = trained_lenet()
    for labels in (y, permuted):
        campaign = FaultCampaign(model, x, labels)
        assert campaign.baseline_accuracy() == model.evaluate(x, labels)
    assert model.evaluate(x, y) != model.evaluate(x, permuted)


@pytest.mark.parametrize("backend", ["float", "packed"])
def test_warm_store_leaves_the_memo_counts_alone(cold_store, backend):
    """The layer-sweep campaign of test_input_cache, run twice in one
    process: the warm run reads the stored prefix and scores the same
    memo hits, misses and entries as the cold one."""
    _, test = get_mnist()
    test = test.subset(800)
    stats = []
    for _ in range(2):
        campaign = FaultCampaign(trained_lenet(), test.x, test.y,
                                 backend=backend)
        for name in (*LENET_MAPPED_LAYERS, "combined"):
            campaign.run(FaultSpec.bitflip, xs=[0.1], repeats=2,
                         layers=None if name == "combined" else [name])
        cache = campaign.input_cache_stats()
        stats.append({key: cache[key] for key in ("hits", "misses",
                                                  "entries")})
        assert campaign._evaluator.prefix_store_counts["misses"] == (
            1 if len(stats) == 1 else 0)
        campaign.close()
    assert stats[0] == stats[1]


def test_the_store_keeps_one_prefix(cold_store):
    """After model B's campaign stores its prefix, model A's prefix
    arrays die with A's campaign."""
    x, y = _images(300)
    first = FaultCampaign(trained_lenet(), x, y)
    first.baseline_accuracy()
    batches = first._evaluator._suffix_batches[BASELINE_SPLIT]
    ref = weakref.ref(batches[0][0])
    del batches
    with FaultCampaign(build_lenet(seed=1), x, y) as second:
        second.baseline_accuracy()
        assert second._evaluator.prefix_store_counts["misses"] == 1
        assert ref() is not None  # A still holds it
        first.close()
        assert ref() is None


def test_threads_sharing_the_store_equal_a_serial_run(cold_store):
    """Two threads run the same sweep at once, racing on a cold slot;
    both canonical results equal a serial run's."""
    params = dict(rates=[0.0, 0.2], repeats=2, images=200)

    def canonical(report):
        return wire.canonical_result(wire.encode_report(report))

    serial = canonical(api.run("sweep", params))
    engine._PREFIX_STORE.clear()
    results = [None, None]
    barrier = threading.Barrier(2)

    def run(index):
        barrier.wait()
        results[index] = canonical(api.run("sweep", params))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results == [serial, serial]


# -- the weight read ----------------------------------------------------------

def _state(model) -> dict:
    return {key: value.copy() for key, value in model.state_dict().items()}


def test_each_call_builds_its_own_model():
    """Every call returns a fresh model with equal weights; writing into
    one leaves the next call's model unchanged."""
    first, second = trained_lenet(), trained_lenet()
    assert first is not second
    assert first.state_dict().keys() == second.state_dict().keys()
    for key, value in first.state_dict().items():
        np.testing.assert_array_equal(value, second.state_dict()[key])
        assert not np.shares_memory(value, second.state_dict()[key])
    first.layers[0].params["kernel"][...] = 0
    first.layers[2].running_mean[...] = 7
    third = _state(trained_lenet())
    for key, value in _state(second).items():
        np.testing.assert_array_equal(third[key], value)


def test_the_weight_file_is_read_once(monkeypatch):
    trained_lenet()  # the slot now holds this file
    loads = []
    load = np.load

    def counted(*args, **kwargs):
        loads.append(args)
        return load(*args, **kwargs)

    monkeypatch.setattr(np, "load", counted)
    trained_lenet()
    trained_lenet()
    assert loads == []


def test_a_resaved_weight_file_is_read_again(tmp_path, monkeypatch):
    """The read is keyed by path, modification time and size."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    path = tmp_path / "lenet_s0_e6.npz"
    build_lenet(seed=3).save_weights(path)
    first = _state(trained_lenet())
    np.testing.assert_array_equal(first["l0.kernel"],
                                  build_lenet(seed=3).layers[0]
                                  .params["kernel"])
    build_lenet(seed=4).save_weights(path)
    # a later save stamps a later time; file systems stamp in coarse
    # ticks, so make the two saves' stamps differ as they would
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
    second = _state(trained_lenet())
    np.testing.assert_array_equal(second["l0.kernel"],
                                  build_lenet(seed=4).layers[0]
                                  .params["kernel"])
    assert not np.array_equal(first["l0.kernel"], second["l0.kernel"])
