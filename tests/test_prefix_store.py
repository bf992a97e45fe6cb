"""The process-wide fault-free prefix store (repro.core.engine) and the
once-per-process weight read (repro.experiments.common)."""

import os
import threading
import weakref

import numpy as np
import pytest

from repro import api
from repro.core import FaultCampaign, FaultSpec, Semantics, engine
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


def test_one_campaign_hashes_each_prefix_layer_once(cold_store,
                                                    monkeypatch):
    """The stored prefix and the baseline record beside it share one
    key, hashed once per campaign: conv0, the pool and bn0 each go
    through ``_hash_layer`` once, and the key is still the test set's
    digest continued with the batch size and each prefix layer."""
    x, y = _images(300)
    model = trained_lenet()
    hashed = []
    hash_layer = engine._hash_layer

    def counted(digest, obj):
        hashed.append(obj)
        hash_layer(digest, obj)

    monkeypatch.setattr(engine, "_hash_layer", counted)
    with FaultCampaign(model, x, y) as campaign:
        campaign.run(FaultSpec.bitflip, xs=[0.0, 0.2], repeats=2)
        evaluator = campaign._evaluator
        key = evaluator._prefix_key(BASELINE_SPLIT)
    prefix = model.layers[:BASELINE_SPLIT]
    assert [sum(obj is layer for obj in hashed) for layer in prefix] == [
        1, 1, 1]
    monkeypatch.undo()
    digest = evaluator.test_set_digest()
    digest.update(b"batch_size=256;")
    for layer in prefix:
        engine._hash_layer(digest, layer)
    assert key == digest.digest()


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


# -- the baseline record ------------------------------------------------------

#: LeNet's first mapped layer, whose pre-hook output the baseline pass
#: memoizes per batch
CONV1 = BASELINE_SPLIT


def _count_conv1(monkeypatch, model) -> list:
    """Record every call of ``model``'s conv1."""
    conv1 = model.layers[CONV1]
    calls = []
    forward = conv1.forward

    def counted(x, training=False):
        calls.append(len(x))
        return forward(x, training=training)

    monkeypatch.setattr(conv1, "forward", counted)
    return calls


def _folds(evaluator) -> dict:
    return {index: (fold.bn, fold.thresholds, fold.negate)
            for index, fold in evaluator._folds.items()}


def _memo_counts(evaluator) -> dict:
    stats = evaluator.input_cache_stats()
    return {key: stats[key] for key in ("hits", "misses", "entries",
                                        "bytes")}


def _lenet_with_a_negative_gamma():
    """The trained LeNet with every other gamma of bn2 negated, so that
    bn2's fold carries a negate vector."""
    model = trained_lenet()
    model.layers[7].params["gamma"][::2] *= -1
    return model


@pytest.mark.parametrize("backend", ["float", "packed"])
def test_second_model_adopts_the_baseline_record(cold_store, monkeypatch,
                                                 backend):
    """A second, separately built LeNet on equal images never runs conv1
    in its baseline and ends it with the cold campaign's baseline,
    sign folds and memo counts; its cells score the cold cells."""
    x, y = _images()
    cold = FaultCampaign(_lenet_with_a_negative_gamma(), x, y,
                         backend=backend)
    cold_baseline = cold.baseline_accuracy()
    cold_memo = _memo_counts(cold._evaluator)
    warm_model = _lenet_with_a_negative_gamma()
    calls = _count_conv1(monkeypatch, warm_model)
    warm = FaultCampaign(warm_model, x.copy(), y.copy(), backend=backend)
    assert warm.baseline_accuracy() == cold_baseline
    assert calls == []
    assert _memo_counts(warm._evaluator) == cold_memo
    assert cold._evaluator.baseline_store_counts == {"hits": 0, "misses": 1}
    assert warm._evaluator.baseline_store_counts == {"hits": 1, "misses": 0}
    assert sorted(warm._evaluator._folds) == [5, 7, 10]  # bn1, bn2, bn3
    for index, (bn, thresholds, negate) in _folds(warm._evaluator).items():
        assert bn is warm_model.layers[index]
        _, cold_thresholds, cold_negate = _folds(cold._evaluator)[index]
        np.testing.assert_array_equal(thresholds, cold_thresholds)
        assert (negate is None) == (cold_negate is None) == (index != 7)
        if negate is not None:
            np.testing.assert_array_equal(negate, cold_negate)
    monkeypatch.undo()
    cold_result, warm_result = (
        campaign.run(FaultSpec.bitflip, xs=[0.0, 0.2], repeats=2)
        for campaign in (cold, warm))
    np.testing.assert_array_equal(warm_result.accuracies,
                                  cold_result.accuracies)
    assert warm.input_cache_stats() == cold.input_cache_stats()


def _suffix_changed(what, model):
    """``model`` with one layer after the prefix changed, and the
    backend to evaluate it on."""
    backend = "float"
    if what == "conv2-kernel":
        model.layers[6].params["kernel"][0, 0, 0, 0] *= -1
    elif what == "bn3-statistic":
        model.layers[10].running_mean[2] += 0.5
    elif what == "dense1-kernel":
        model.layers[11].params["kernel"][0, 0] *= -1
    elif what == "backend":
        backend = "packed"
    return model, backend


@pytest.mark.parametrize("what", ["nothing", "conv2-kernel", "bn3-statistic",
                                  "dense1-kernel", "backend"])
def test_any_change_after_the_prefix_misses_the_record(cold_store,
                                                       monkeypatch, what):
    """The record's key covers every layer after the prefix and the
    backend: a change there runs conv1 over every image again, from the
    stored prefix."""
    x, y = _images()
    CampaignEvaluator(trained_lenet(), x, y).baseline()
    model, backend = _suffix_changed(what, trained_lenet())
    calls = _count_conv1(monkeypatch, model)
    evaluator = CampaignEvaluator(model, x, y, backend=backend)
    evaluator.baseline()
    assert evaluator.prefix_store_counts == {"hits": 1, "misses": 0}
    if what == "nothing":
        assert calls == []
        assert evaluator.baseline_store_counts == {"hits": 1, "misses": 0}
    else:
        assert sum(calls) == len(x)
        assert evaluator.baseline_store_counts == {"hits": 0, "misses": 1}


def test_a_new_prefix_drops_the_record(cold_store):
    x, y = _images(300)
    CampaignEvaluator(trained_lenet(), x, y).baseline()
    CampaignEvaluator(trained_lenet(), x[:200], y[:200])._compute_batches(
        BASELINE_SPLIT)
    evaluator = CampaignEvaluator(trained_lenet(), x, y)
    evaluator.baseline()
    assert evaluator.prefix_store_counts == {"hits": 0, "misses": 1}
    assert evaluator.baseline_store_counts == {"hits": 0, "misses": 1}


def _batch_entry() -> int:
    """Bytes of conv1's output for one full 256-image batch, in the
    dtype the memo keeps it in."""
    x, y = _images(256)
    with FaultCampaign(trained_lenet(), x, y) as campaign:
        campaign.baseline_accuracy()
        ((_, reps),) = campaign._evaluator._memo.values()
        (entry,) = reps.values()
    engine._PREFIX_STORE.clear()
    assert entry.shape == (256, 8, 8, 16)
    return 256 * 8 * 8 * 16 * entry.dtype.itemsize


@pytest.mark.parametrize("batches", [0, 1], ids=["no-room", "one-batch"])
def test_a_capped_memo_adopts_what_a_cold_one_keeps(cold_store, batches):
    """Adoption stores the record's entries under the evaluator's own
    cap, as the pass would have: a memo too small for any entry keeps
    none, one with room for one batch keeps one, and the hits and
    misses equal a cold evaluator's with the same cap, before and after
    a run.  A pass whose memo could not keep every entry publishes no
    record."""
    cache_bytes = batches * _batch_entry()
    x, y = _images()
    counts = []
    for store in ("cold", "warm"):
        if store == "warm":
            FaultCampaign(trained_lenet(), x, y).baseline_accuracy()
        campaign = FaultCampaign(trained_lenet(), x, y,
                                 cache_bytes=cache_bytes)
        campaign.baseline_accuracy()
        counts.append(_memo_counts(campaign._evaluator))
        campaign.run(FaultSpec.bitflip, xs=[0.1], repeats=2,
                     layers=["conv1"])
        counts.append(_memo_counts(campaign._evaluator))
        assert campaign._evaluator.baseline_store_counts == (
            {"hits": 0, "misses": 1} if store == "cold"
            else {"hits": 1, "misses": 0})
        engine._PREFIX_STORE.clear()
    assert counts[0] == counts[2]
    assert counts[1] == counts[3]
    assert counts[0]["entries"] == (0 if cache_bytes == 0 else 1)
    assert counts[0]["misses"] == 4
    # the capped cold pass left no record behind
    FaultCampaign(trained_lenet(), x, y, cache_bytes=cache_bytes
                  ).baseline_accuracy()
    evaluator = CampaignEvaluator(trained_lenet(), x, y)
    evaluator.baseline()
    assert evaluator.baseline_store_counts == {"hits": 0, "misses": 1}


@pytest.mark.parametrize("spec", [
    FaultSpec.bitflip,
    lambda x: FaultSpec.stuck_at(x, semantics=Semantics.WEIGHT),
], ids=["output-flip", "weight-stuck"])
def test_faulty_cells_before_the_baseline_count_as_cold(cold_store, spec):
    """fig4c's order: a grid without a fault-free point evaluates its
    faulty cells first and the baseline last.  Adopting then hits the
    entries the cells made, or misses where they memoized a derived
    input, exactly as the cold pass does."""
    x, y = _images()
    stats = []
    for _ in range(2):
        with FaultCampaign(trained_lenet(), x, y) as campaign:
            result = campaign.run(spec, xs=[0.1, 0.2], repeats=2,
                                  layers=["conv1"])
            stats.append((result.meta["input_cache"],
                          _memo_counts(campaign._evaluator),
                          result.accuracies.tolist(), result.baseline,
                          dict(campaign._evaluator.baseline_store_counts)))
    assert stats[0][:4] == stats[1][:4]
    assert [counts for *_, counts in stats] == [{"hits": 0, "misses": 1},
                                                {"hits": 1, "misses": 0}]


@pytest.mark.parametrize("layer, spec, hits, misses", [
    ("conv1", FaultSpec.bitflip, 16, 4),
    ("conv2", FaultSpec.bitflip, 20, 8),
    ("conv1", lambda x: FaultSpec.stuck_at(x, semantics=Semantics.WEIGHT),
     16, 8),
], ids=["conv1", "conv2", "conv1-weight"])
def test_pool_on_a_warm_record_scores_no_worker_miss(cold_store, layer, spec,
                                                     hits, misses):
    """The pool's parent adopts the record before it forks: the misses
    are the parent's warmed entries (test_input_cache's counts for a
    cold pool), and every worker lookup hits."""
    x, y = _images()
    FaultCampaign(trained_lenet(), x, y,
                  backend="packed").baseline_accuracy()
    with FaultCampaign(trained_lenet(), x, y, executor="shared_memory",
                       n_jobs=2, backend="packed") as campaign:
        result = campaign.run(spec, xs=[0.1, 0.2], repeats=2,
                              layers=[layer])
        assert campaign._evaluator.baseline_store_counts == {"hits": 1,
                                                             "misses": 0}
    stats = result.meta["input_cache"]
    assert (stats["hits"], stats["misses"]) == (hits, misses)


def test_the_store_keeps_one_baseline_record(cold_store):
    """After model B, with model A's prefix and another dense1, stores
    its record, A's recorded conv1 output dies with A's campaign."""
    x, y = _images(300)
    first = FaultCampaign(trained_lenet(), x, y)
    first.baseline_accuracy()
    batch = first._evaluator._suffix_batches[BASELINE_SPLIT][0][0]
    (output,) = first._evaluator._memo[id(batch)][1].values()
    ref = weakref.ref(output)
    del batch, output
    model = trained_lenet()
    model.layers[11].params["kernel"][0, 0] *= -1
    with FaultCampaign(model, x, y) as second:
        second.baseline_accuracy()
        assert second._evaluator.prefix_store_counts == {"hits": 1,
                                                         "misses": 0}
        assert second._evaluator.baseline_store_counts == {"hits": 0,
                                                           "misses": 1}
        assert ref() is not None  # A still holds it
        first.close()
        assert ref() is None


def test_a_hooked_model_keeps_no_record(cold_store):
    """A baseline taken while a plan is attached from outside the
    campaign is not fault-free: it publishes no record, and the next
    campaign runs its own pass."""
    from repro.core import FaultGenerator, FaultInjector
    x, y = _images(300)
    model = trained_lenet()
    plan = FaultGenerator(FaultSpec.bitflip(0.3), rows=40, cols=10,
                          seed=1).generate(model)
    with FaultInjector().injecting(model, plan):
        hooked = FaultCampaign(model, x, y)
        faulty = hooked.baseline_accuracy()
    assert hooked._evaluator.baseline_store_counts == {"hits": 0,
                                                       "misses": 0}
    clean = FaultCampaign(trained_lenet(), x, y)
    assert clean.baseline_accuracy() == model.evaluate(x, y) != faulty
    assert clean._evaluator.baseline_store_counts == {"hits": 0,
                                                      "misses": 1}


def test_the_record_counters_reach_the_metrics(cold_store):
    """Two campaigns on one model and test set: the second run folds one
    record hit, the first one miss."""
    from repro.obs import Observability
    x, y = _images(200)
    counters = []
    for _ in range(2):
        obs = Observability()
        with FaultCampaign(trained_lenet(), x, y, obs=obs) as campaign:
            campaign.run(FaultSpec.bitflip, xs=[0.0, 0.1], repeats=1)
        snapshot = obs.metrics.snapshot()["counters"]
        counters.append((snapshot["repro_baseline_store_hits_total"],
                         snapshot["repro_baseline_store_misses_total"]))
    assert counters == [(0, 1), (1, 0)]


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
