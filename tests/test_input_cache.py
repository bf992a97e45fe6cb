"""The campaign evaluator's per-batch memo (repro.core.engine): split
layer outputs and derived inputs."""

import numpy as np
import pytest

from repro import nn
from repro.binary import QuantDense
from repro.core import FaultCampaign, FaultSpec, Semantics
from repro.experiments.common import get_mnist, trained_lenet
from repro.models.lenet import LENET_MAPPED_LAYERS


# -- end-to-end: a >8-batch campaign actually hits ------------------------

@pytest.fixture(scope="module")
def trained_setup():
    rng = np.random.default_rng(0)
    n = 700
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


def test_campaign_cache_hits_on_more_batches_than_legacy_slots(trained_setup):
    """16 batches > the 8 legacy slots: the fixed FIFO cycled at 0% here;
    the campaign-sized cache must hit on every repetition after the first."""
    model, x, y = trained_setup
    campaign = FaultCampaign(model, x, y, rows=8, cols=4, batch_size=25,
                             backend="packed")
    result = campaign.run(FaultSpec.bitflip, xs=[0.2, 0.4], repeats=3)
    stats = result.meta["input_cache"]
    assert stats["misses"] == 16   # one cold pass over the 16 batches
    assert stats["hits"] > 0
    assert stats["hit_rate"] > 0.5


def test_campaign_respects_cache_byte_cap(trained_setup):
    """A cap smaller than one batch's representation disables retention
    without corrupting results."""
    model, x, y = trained_setup
    capped = FaultCampaign(model, x, y, rows=8, cols=4, batch_size=25,
                           backend="packed", cache_bytes=8)
    free = FaultCampaign(model, x, y, rows=8, cols=4, batch_size=25,
                         backend="packed")
    r_capped = capped.run(FaultSpec.bitflip, xs=[0.2, 0.4], repeats=2)
    r_free = free.run(FaultSpec.bitflip, xs=[0.2, 0.4], repeats=2)
    assert np.array_equal(r_capped.accuracies, r_free.accuracies)
    assert r_capped.meta["input_cache"]["hits"] == 0
    assert r_capped.meta["input_cache"]["bytes"] <= 8


def test_interleaved_campaigns_keep_their_hit_rates(trained_setup):
    model, x, y = trained_setup
    c1 = FaultCampaign(model, x, y, rows=8, cols=4, batch_size=25,
                       backend="packed")
    c2 = FaultCampaign(model, x[:400], y[:400], rows=8, cols=4,
                       batch_size=25, backend="packed")
    for _ in range(2):
        c1.run(FaultSpec.bitflip, xs=[0.3], repeats=2)
        c2.run(FaultSpec.bitflip, xs=[0.3], repeats=2)
    # each campaign pays its cold pass once; interleaving evicts nothing
    assert c1.input_cache_stats()["misses"] == 16
    assert c2.input_cache_stats()["misses"] == 16
    assert c1.input_cache_stats()["hit_rate"] > 0.5
    assert c2.input_cache_stats()["hit_rate"] > 0.5
    # closing one campaign releases only its own entries: the survivor's
    # next run is pure hits, no fresh cold pass
    c1.close()
    assert c1.input_cache_stats()["entries"] == 0
    before = c2.input_cache_stats()["misses"]
    c2.run(FaultSpec.bitflip, xs=[0.3], repeats=2)
    assert c2.input_cache_stats()["misses"] == before


def test_capped_memo_keeps_hitting_the_batches_it_holds(trained_setup):
    """A cap that fits k of the n replayed batches keeps those k for the
    whole campaign, so every later pass hits on them (an LRU replaying
    the n batches in a cycle evicts each one before its reuse)."""
    model, x, y = trained_setup
    free = FaultCampaign(model, x, y, rows=8, cols=4, batch_size=25,
                         backend="packed")
    free.baseline_accuracy()
    stats = free.input_cache_stats()
    assert stats["entries"] == 16
    per_batch = stats["bytes"] // stats["entries"]
    k = 5
    capped = FaultCampaign(model, x, y, rows=8, cols=4, batch_size=25,
                           backend="packed", cache_bytes=k * per_batch)
    result = capped.run(FaultSpec.bitflip, xs=[0.3], repeats=3)
    stats = capped.input_cache_stats()
    assert (stats["entries"], stats["bytes"]) == (k, k * per_batch)
    # three faulted passes, then the baseline pass: the first pass fills
    # the memo, each later one hits on all k batches it holds
    assert stats["hits"] == 3 * k
    reference = free.run(FaultSpec.bitflip, xs=[0.3], repeats=3)
    assert np.array_equal(result.accuracies, reference.accuracies)


# -- the memo on the paper's LeNet -----------------------------------------

#: hits of an 800-image LeNet campaign over the five Fig. 4a series at one
#: rate with two repeats.  Both backends memoize every split layer's
#: output, dense layers included (float kept no dense entry, and scored
#: 28, while it memoized im2col columns)
LENET_HITS = {"float": 40, "packed": 40}


@pytest.mark.parametrize("backend", sorted(LENET_HITS))
def test_lenet_layer_sweep_memoizes_only_replayed_batches(backend):
    """conv0 only ever sees fresh slices of the test set (the one-shot
    prefix pass), so it memoizes nothing, and each entry is made by
    exactly one miss."""
    model = trained_lenet()
    _, test = get_mnist()
    test = test.subset(800)
    campaign = FaultCampaign(model, test.x, test.y, backend=backend)
    for name in (*LENET_MAPPED_LAYERS, "combined"):
        campaign.run(FaultSpec.bitflip, xs=[0.1], repeats=2,
                     layers=None if name == "combined" else [name])
    memoized = {layer.name for _, reps in campaign._evaluator._memo.values()
                for layer, _ in reps}
    assert "conv0" not in memoized
    assert memoized <= set(LENET_MAPPED_LAYERS)
    stats = campaign.input_cache_stats()
    assert stats["misses"] == stats["entries"]
    assert stats["hits"] == LENET_HITS[backend]
    assert all(layer._input_memo is None for layer in model.all_layers()
               if hasattr(layer, "_input_memo"))


#: weight- and product-level faults hook the split layer's GEMM: its
#: derived input is memoized instead of its output
WEIGHT_STUCK = lambda x: FaultSpec.stuck_at(x, semantics=Semantics.WEIGHT)
PRODUCT_FLIP = lambda x: FaultSpec.bitflip(x, semantics=Semantics.PRODUCT)


@pytest.mark.parametrize("executor, n_jobs, layer, spec, hits, misses", [
    pytest.param("serial", None, "conv1", FaultSpec.bitflip, 12, 4,
                 id="serial-None-12"),
    pytest.param("shared_memory", 2, "conv1", FaultSpec.bitflip, 16, 4,
                 id="shared_memory-2-16"),
    pytest.param("shared_memory", 2, "conv2", FaultSpec.bitflip, 20, 8,
                 id="shared_memory-2-conv2"),
    pytest.param("shared_memory", 2, "conv1", WEIGHT_STUCK, 16, 8,
                 id="shared_memory-2-weight"),
    pytest.param("shared_memory", 2, "conv1", PRODUCT_FLIP, 16, 8,
                 id="shared_memory-2-product"),
])
def test_pool_workers_memo_hits_reach_the_campaign_stats(executor, n_jobs,
                                                         layer, spec, hits,
                                                         misses):
    """Four cells over four batches.  Serial misses conv1's output once
    per batch on the first cell, then hits.  On the pool the parent
    warms before it forks: its baseline pass misses conv1's output per
    batch, and for a conv2 grid it also runs conv2 over the conv2 split's
    batches (4 more misses; computing that prefix hits conv1's 4
    entries).  Under weight- or product-level faults it runs conv1 once
    more under one plan, missing conv1's derived input (packed words, or
    im2col columns under a product hook) per batch.  The workers inherit
    every entry and hit on all 16 of their lookups, so the misses are
    the parent's warmed (split, batch, entry) triples.  The meta and the
    run's counters both see them."""
    from repro.obs import Observability
    model = trained_lenet()
    _, test = get_mnist()
    test = test.subset(800)
    obs = Observability()
    with FaultCampaign(model, test.x, test.y, executor=executor,
                       n_jobs=n_jobs, backend="packed", obs=obs) as campaign:
        result = campaign.run(spec, xs=[0.1, 0.2], repeats=2,
                              layers=[layer])
    stats = result.meta["input_cache"]
    assert (stats["hits"], stats["misses"]) == (hits, misses)
    counters = obs.metrics.snapshot()["counters"]
    assert counters["repro_input_cache_hits_total"] == hits
    assert counters["repro_input_cache_misses_total"] == misses


@pytest.mark.parametrize("backend", ["float", "packed"])
def test_in_place_output_hook_raises_on_the_memoized_output(
        trained_setup, monkeypatch, backend):
    """The split layer's memoized output is read-only: an output hook
    that writes into the feature map it is given raises, and the entry
    every later cell starts from is left as it was."""
    from repro.core import semantics
    model, x, y = trained_setup
    campaign = FaultCampaign(model, x, y, rows=8, cols=4, batch_size=25,
                             backend=backend)
    campaign.baseline_accuracy()
    held = [(rep, rep.copy())
            for _, reps in campaign._evaluator._memo.values()
            for rep in reps.values()]

    def flip_in_place(feature_map, signs):
        flat = feature_map.reshape(feature_map.shape[0], -1)
        flat *= signs
        return feature_map

    monkeypatch.setattr(semantics, "apply_output_flips", flip_in_place)
    with pytest.raises(ValueError, match="read-only"):
        campaign.run(FaultSpec.bitflip, xs=[0.3], repeats=1)
    assert len(held) == 16
    assert all(np.array_equal(rep, copy) for rep, copy in held)
