"""Integration tests for the Fig. 5 / Table II runners (cached models)."""

import numpy as np
import pytest

from repro import api
from repro.experiments import fig5, tables, trained_zoo_model
from repro.experiments.tables import table2_model_stats
from repro.models.zoo import MODEL_PAPER_STATS, model_names


def test_trained_zoo_model_loads_from_cache():
    model = trained_zoo_model("binary_alexnet")
    assert model.built
    again = trained_zoo_model("binary_alexnet")
    first = model.state_dict()
    second = again.state_dict()
    for key in first:
        np.testing.assert_array_equal(first[key], second[key])


def test_trained_zoo_model_rejects_unknown():
    with pytest.raises(ValueError):
        trained_zoo_model("lenet5000")


def test_model_sweep_single_model():
    results = api.run("fig5a", params=dict(models=["binary_alexnet"],
                                           rates=[0.0, 0.2], repeats=2,
                                           images=60)).raw
    assert list(results) == ["binary_alexnet"]
    result = results["binary_alexnet"]
    assert result.accuracies.shape == (2, 2)
    assert result.mean()[0] == pytest.approx(result.baseline)
    assert result.mean()[1] <= result.mean()[0]


def test_fig5_loads_each_model_after_the_previous_campaign_closed(
        monkeypatch):
    """Zoo models load one at a time: the next model is built only once
    the previous model's campaign has released its caches."""
    from repro.core import FaultCampaign
    from repro.experiments import common
    steps = []
    load, close = common.trained_zoo_model, FaultCampaign.close

    def loading(name, *args, **kwargs):
        steps.append(name)
        return load(name, *args, **kwargs)

    def closing(campaign):
        steps.append("close")
        close(campaign)

    monkeypatch.setattr(common, "trained_zoo_model", loading)
    monkeypatch.setattr(FaultCampaign, "close", closing)
    api.run("fig5a", params=dict(models=["binary_alexnet",
                                         "binary_resnet_e18"],
                                 rates=[0.0], repeats=1, images=20))
    assert steps == ["binary_alexnet", "close", "binary_resnet_e18", "close"]


def test_repeated_model_refused_before_any_model_loads(monkeypatch):
    """A model named twice would run twice under one series label; it
    is refused before any model loads."""
    from repro.experiments import common
    loaded = []
    monkeypatch.setattr(common, "trained_zoo_model",
                        lambda name, *args, **kwargs: loaded.append(name))
    with pytest.raises(ValueError, match="binary_alexnet given more than"):
        api.run("fig5a", params=dict(
            models=["binary_alexnet", "binary_alexnet"], rates=[0.0, 0.2],
            repeats=1, images=20))
    assert loaded == []


def test_fig5c_recovers_with_period():
    report = api.run("fig5c", params=dict(models=["binary_resnet_e18"],
                                          periods=[0, 4], rate=0.15,
                                          repeats=2, images=60))
    means = report.get_series("binary_resnet_e18").mean
    assert means[1] >= means[0] - 0.05


def _never_called(*_args, **_kwargs):
    raise AssertionError("Table II without accuracy must not train")


def test_table2_stats_without_accuracy(monkeypatch):
    """Every column but Top-1 comes from the architecture alone, so no
    zoo model trains and no dataset is built."""
    monkeypatch.setattr(tables, "trained_zoo_model", _never_called)
    monkeypatch.setattr(tables, "get_imagenet", _never_called)
    rows = table2_model_stats(measure_accuracy=False)
    assert [row["model"] for row in rows] == model_names()
    for row in rows:
        assert row["binarized_pct"] > 85.0
        assert row["paper_binarized_pct"] == \
            MODEL_PAPER_STATS[row["model"]][4]
        assert np.isnan(row["top1_pct"])


def test_table2_densenet_size_grows_with_depth():
    """A Table II invariant that survives the CPU scaling."""
    size = {row["model"]: row["size_mb"]
            for row in table2_model_stats(measure_accuracy=False)}
    assert (size["binary_densenet45"] > size["binary_densenet37"]
            > size["binary_densenet28"])


def test_sweep_ranges_match_paper_axes():
    """Fig. 5b's stuck-at axis is 10x tighter than Fig. 5a's bit-flip axis."""
    assert max(fig5.STUCKAT_RATES) == 0.02
    assert max(fig5.BITFLIP_RATES) == 0.20
    assert max(fig5.BITFLIP_RATES) / max(fig5.STUCKAT_RATES) == 10.0
