"""Integration tests for the Fig. 4 experiments, and the paper's Fig. 4
claims as a behavioural spec.

These use the cached trained LeNet (training it on first run) and small
sweep settings, so they run the registry entries end-to-end without
benchmark-scale runtimes.  The claims that need paper-scale workloads
live in ``benchmarks/bench_paper_claims.py``.
"""

import gc
import weakref

import numpy as np
import pytest

from repro import api
from repro.core import FaultCampaign, FaultSpec
from repro.core import campaign as campaign_module
from repro.core.engine import CampaignEvaluator
from repro.experiments import get_mnist, trained_lenet
from repro.experiments.tables import table1_setup
from repro.models.lenet import LENET_MAPPED_LAYERS

#: the spec tests' scale: large enough for stable curve shapes, small
#: enough for tier-1 (~0.1 s per entry)
SHAPE = dict(images=250, repeats=3)


def _columns(count):
    return FaultSpec.faulty_columns(int(count))


def _rows(count):
    return FaultSpec.faulty_rows(int(count))


@pytest.fixture(scope="module")
def lenet():
    return trained_lenet()


@pytest.fixture(scope="module")
def tiny_test():
    _, test = get_mnist()
    return test.subset(60)


def test_lenet_baseline_matches_paper_regime(lenet):
    """Paper: 97.62% on MNIST.  The synthetic substitute must land in the
    same regime (>= 90%) for degradation studies to be meaningful."""
    _, test = get_mnist()
    assert test.x.shape[1:] == (28, 28, 1)
    accuracy = lenet.evaluate(test.x, test.y)
    assert accuracy >= 0.90


def test_fig4a_runner_structure():
    report = api.run("fig4a", params=dict(rates=[0.0, 0.3], repeats=2,
                                          images=60))
    results = report.raw
    assert set(results) == set(LENET_MAPPED_LAYERS) | {"combined"}
    for label, result in results.items():
        assert result.accuracies.shape == (2, 2), label
        assert result.mean()[0] == result.baseline


def test_fig4b_stuckat_stronger_than_bitflip():
    """The paper's central finding: permanent stuck-at faults degrade
    accuracy more than transient bit-flips at the same injection rate."""
    params = dict(rates=[0.15], repeats=4, images=250)
    flips = api.run("fig4a", params=params).get_series("combined")
    stuck = api.run("fig4b", params=params).get_series("combined")
    assert stuck.mean[0] < flips.mean[0]


def test_fig4c_dynamic_recovers():
    report = api.run("fig4c", params=dict(periods=[0, 4], rate=0.15,
                                          repeats=3, images=60))
    means = report.get_series("dynamic").mean
    assert means[1] >= means[0]


def test_fig4d_columns_within_range():
    report = api.run("fig4d", params=dict(counts=[0, 4], repeats=2,
                                          images=60))
    assert list(report.raw) == list(LENET_MAPPED_LAYERS)
    conv1 = report.raw["conv1"]
    assert conv1.mean()[1] <= conv1.mean()[0]


def test_fig4e_rows_milder_than_columns(lenet, tiny_test):
    """160 faulty cells via rows must hurt less than via columns (paper:
    'the impact of faulty columns is more substantial than of faulty
    rows')."""
    with FaultCampaign(lenet, tiny_test.x, tiny_test.y) as campaign:
        cols = campaign.run(_columns, [4], repeats=3, layers=["conv1"])
        rows = campaign.run(_rows, [16], repeats=3, layers=["conv1"])
    assert rows.mean()[0] >= cols.mean()[0] - 0.05


@pytest.mark.parametrize("name,params", [
    ("fig4a", dict(rates=[0.0, 0.3])),
    ("fig4d", dict(counts=[0, 2])),
], ids=["fig4a", "fig4d"])
def test_sweep_entries_free_caches_on_return(name, params, monkeypatch):
    """Campaign memory is freed by scope, not by the cyclic GC: with
    collection off, the evaluator and its memo are gone once a sweep
    entry returns, and no layer still holds the memo it was lent."""
    evaluators, models = [], []

    class Recorded(CampaignEvaluator):
        def __init__(self, model, *args, **kwargs):
            super().__init__(model, *args, **kwargs)
            evaluators.append(weakref.ref(self))
            models.append(model)

    monkeypatch.setattr(campaign_module, "CampaignEvaluator", Recorded)
    gc.disable()
    try:
        api.run(name, params=dict(params, repeats=2, images=60))
        alive = [ref() for ref in evaluators if ref() is not None]
    finally:
        gc.enable()
    assert evaluators and not alive
    assert all(layer._input_memo is None for model in models
               for layer in model.all_layers()
               if hasattr(layer, "_input_memo"))


def test_fig4f_runtime_shape():
    """Runtime protocol on the quick entry's small model (LeNet-scale
    serial runs take minutes; benchmarks/bench_paper_claims.py covers
    those)."""
    report = api.run("fig4f", quick=True)
    rows = report.tables["runtime"]["rows"]
    names = [platform for platform, _, _ in rows]
    assert names == ["X-Fault", "device-tile", "FLIM", "vanilla"]
    by_name = {platform: speedup for platform, _, speedup in rows}
    assert by_name["X-Fault"] == pytest.approx(1.0)
    assert by_name["FLIM"] > 10.0      # device level must be far slower
    assert by_name["FLIM"] >= by_name["device-tile"]


@pytest.mark.parametrize("options", [
    {"executor": "shared_memory", "n_jobs": 2},
    {"backend": "packed"},
], ids=["executor", "backend"])
def test_fig4f_warns_when_it_ignores_engine_options(options):
    """fig4f always times the serial float path; any other executor or
    backend is ignored, said so, and the report names what ran."""
    warnings = []
    report = api.run("fig4f", quick=True, **options,
                     on_event=lambda event: warnings.append(event)
                     if isinstance(event, api.RunWarning) else None)
    assert [event.message for event in warnings] == [
        "fig4f is a wall-clock runtime measurement; it always runs "
        "serially on the float backend and ignores executor/backend "
        "options"]
    assert (report.engine["executor"], report.engine["n_jobs"],
            report.engine["backend"]) == ("serial", None, "float")


def test_table1_setup_rows():
    rows = table1_setup()
    keys = [key for key, _ in rows]
    assert "CPU" in keys
    assert "numpy" in keys
    assert all(isinstance(value, str) and value for _, value in rows)


def test_trained_lenet_cache_roundtrip(lenet):
    """A second call must load identical weights from the cache."""
    again = trained_lenet()
    first = lenet.state_dict()
    second = again.state_dict()
    assert set(first) == set(second)
    for key in first:
        np.testing.assert_array_equal(first[key], second[key])


# -- the paper's Fig. 4 claims (the spec) ----------------------------------

@pytest.fixture(scope="module")
def shape_reports():
    """fig4a..fig4e at their default axes and the spec scale."""
    return {name: api.run(name, params=SHAPE)
            for name in ("fig4a", "fig4b", "fig4c", "fig4d", "fig4e")}


@pytest.mark.parametrize("name", ["fig4a", "fig4b", "fig4d", "fig4e"])
def test_point_zero_reproduces_the_baseline_exactly(shape_reports, name):
    report = shape_reports[name]
    for series in report.series:
        assert series.mean[0] == report.baseline, series.label


@pytest.mark.parametrize("name,margin", [("fig4a", 0.05), ("fig4b", 0.10)])
def test_heavy_injection_degrades_combined(shape_reports, name, margin):
    report = shape_reports[name]
    combined = report.get_series("combined")
    assert combined.mean[-1] < report.baseline - margin


def test_fig4a_combined_curve_is_the_worst(shape_reports):
    """Bit-flips in every layer at once hurt more than in any single
    layer (at 30%: ~0.18 combined against >= ~0.69 per layer).  Fig. 4b
    makes no such claim: stuck-at dense1 alone can fall as low."""
    report = shape_reports["fig4a"]
    combined = report.get_series("combined").mean[-1]
    for layer in LENET_MAPPED_LAYERS:
        assert combined < report.get_series(layer).mean[-1], layer


def test_fig4c_long_periods_approach_the_baseline(shape_reports):
    report = shape_reports["fig4c"]
    means = report.get_series("dynamic").mean
    assert means[-1] > means[0]
    assert means[-1] > report.baseline - 0.10


def test_fig4d_four_faulty_columns_degrade_every_layer(shape_reports):
    report = shape_reports["fig4d"]
    for series in report.series:
        assert series.xs[-1] == 4
        assert series.mean[-1] < report.baseline, series.label
