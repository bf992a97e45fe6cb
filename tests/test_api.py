"""Tests for the repro.api typed entry point.

Covers the registry contracts (duplicate names, unknown params, quick
overrides), request validation, the streaming event contract
(CellDone/CheckpointDone/RunWarning ordering), journal/resume through
``RunRequest``, and bit-identity of registry entries against plain
``FaultCampaign`` loops and ``run_scenario`` calls.
"""

import json
import warnings

import numpy as np
import pytest

from repro import api
from repro.api import (ApiError, CellDone, CheckpointDone, Experiment,
                       ExperimentRegistry, Param, RunFinished, RunRequest,
                       RunStarted, RunWarning)

#: tiny-but-real sweep configuration shared by the heavier tests
TINY = dict(rates=[0.0, 0.3], repeats=2, images=60, rows=8, cols=4)


# -- registry -------------------------------------------------------------

def _entry(name="demo", **kwargs):
    return Experiment(name=name, func=lambda ctx: ctx.report(), **kwargs)


def test_duplicate_registration_refused():
    registry = ExperimentRegistry()
    registry.register(_entry("demo"))
    with pytest.raises(ApiError, match="already registered"):
        registry.register(_entry("demo"))


def test_alias_collision_refused():
    registry = ExperimentRegistry()
    registry.register(_entry("demo", aliases=("d",)))
    with pytest.raises(ApiError, match="already registered"):
        registry.register(_entry("d"))
    with pytest.raises(ApiError, match="already registered"):
        registry.register(_entry("other", aliases=("demo",)))


def test_alias_resolves_to_canonical_entry():
    assert api.describe("fig5")["name"] == "fig5a"
    assert "fig5" not in api.experiment_names()  # aliases are not listed


def test_unregister_removes_aliases():
    registry = ExperimentRegistry()
    registry.register(_entry("demo", aliases=("d",)))
    registry.unregister("demo")
    with pytest.raises(ApiError, match="unknown experiment"):
        registry.get("d")


def test_unregister_resolves_aliases_like_get():
    registry = ExperimentRegistry()
    registry.register(_entry("demo", aliases=("d",)))
    registry.unregister("d")  # by alias, symmetric with get()
    with pytest.raises(ApiError, match="unknown experiment"):
        registry.get("demo")


def test_quick_overrides_must_be_declared_params():
    with pytest.raises(ApiError, match="quick overrides"):
        _entry("demo", params=(Param("a", "int", 1),), quick={"b": 2})


def test_unknown_experiment_raises():
    with pytest.raises(ApiError, match="unknown experiment"):
        api.submit(RunRequest("not-an-experiment"))


def test_unknown_param_raises():
    with pytest.raises(ApiError, match="unknown param"):
        api.submit(RunRequest("sweep", params={"bogus": 1}))


def test_param_coercion_and_choices():
    floats = Param("rates", "floats", [0.0])
    assert floats.parse("0.0,0.25,1") == [0.0, 0.25, 1.0]
    assert floats.parse((0, 1)) == [0.0, 1.0]
    assert floats.format([0.0, 0.25]) == "0.0,0.25"
    flag = Param("accuracy", "bool", True)
    assert flag.parse("true") is True and flag.parse("0") is False
    with pytest.raises(ApiError, match="cannot read"):
        flag.parse("maybe")
    fault = Param("fault", "str", "bitflip", choices=("bitflip", "stuck_at"))
    with pytest.raises(ApiError, match="not one of"):
        fault.parse("meltdown")
    with pytest.raises(ApiError, match="unknown kind"):
        Param("x", "complex")


def test_resolve_applies_defaults_quick_then_user():
    entry = _entry("demo", params=(Param("a", "int", 1),
                                   Param("b", "int", 2)),
                   quick={"a": 10})
    assert entry.resolve({}) == {"a": 1, "b": 2}
    assert entry.resolve({}, quick=True) == {"a": 10, "b": 2}
    assert entry.resolve({"a": "7"}, quick=True) == {"a": 7, "b": 2}


# -- request validation ---------------------------------------------------

@pytest.mark.parametrize("kwargs,match", [
    (dict(executor="gpu"), "unknown executor"),
    (dict(backend="int8"), "unknown backend"),
    (dict(n_jobs=-1), "n_jobs"),
    (dict(cache_bytes=-5), "cache_bytes"),
    (dict(resume=True), "--journal"),
    (dict(executor="multiprocessing"), "unknown executor"),
    (dict(executor="shm"), "unknown executor"),
    # JSON booleans are not counts, and flags must be real bools
    (dict(n_jobs=True), "n_jobs"),
    (dict(cache_bytes=True), "cache_bytes"),
    (dict(retries=True), "retries"),
    (dict(job_timeout=True), "job_timeout"),
    (dict(quick="false"), "quick"),
    (dict(degrade="no"), "degrade"),
    (dict(resume=1, journal="sweep.jsonl"), "resume"),
    # a NaN deadline never expires: the timeout would be silently off
    (dict(job_timeout=float("nan")), "job_timeout"),
    (dict(job_timeout=float("inf")), "job_timeout"),
])
def test_request_validation(kwargs, match):
    with pytest.raises(ApiError, match=match):
        RunRequest("sweep", **kwargs)


def test_journal_refused_for_unsupported_experiment(tmp_path):
    with pytest.raises(ApiError, match="does not support journal"):
        api.submit(RunRequest("table1", journal=str(tmp_path / "t.jsonl")))


# -- events + handle ------------------------------------------------------

def test_sweep_event_stream_contract():
    events = []
    handle = api.submit(RunRequest("sweep", params=TINY))
    handle.subscribe(events.append)
    report = handle.run()
    assert isinstance(events[0], RunStarted)
    assert isinstance(events[-1], RunFinished)
    assert events[-1].report is report
    cells = [e for e in events if isinstance(e, CellDone)]
    assert len(cells) == len(TINY["rates"]) * TINY["repeats"]
    assert {c.series for c in cells} == {"bitflip"}
    assert cells[-1].done == cells[-1].total == len(cells)
    assert report.meta["events"]["CellDone"] == len(cells)
    # a second run() returns the stored report without re-running
    assert handle.run() is report


def test_events_iterator_drives_the_run():
    handle = api.submit(RunRequest("sweep", params=TINY))
    names = [type(event).__name__ for event in handle.events()]
    assert names[0] == "RunStarted" and names[-1] == "RunFinished"
    assert names.count("CellDone") == 4
    assert handle.report is not None


def test_events_iterator_reraises_failures():
    api.REGISTRY.register(Experiment(
        name="boom-iter", func=lambda ctx: (_ for _ in ()).throw(
            RuntimeError("kaput"))))
    try:
        handle = api.submit(RunRequest("boom-iter"))
        with pytest.raises(RuntimeError, match="kaput"):
            list(handle.events())
        assert handle.state == "failed"
    finally:
        api.REGISTRY.unregister("boom-iter")


def test_scenario_emits_checkpoint_events():
    events = []
    report = api.run("fresh-device", quick=True, on_event=events.append)
    checkpoints = [e for e in events if isinstance(e, CheckpointDone)]
    assert [c.index for c in checkpoints] == [0, 1, 2]
    assert checkpoints[0].total == 3
    assert report.get_series("nominal").xs == [0.0, 1e6, 5e6]


def test_pool_fallback_emits_warning_event():
    """A 1-cell grid on a 2-worker pool must announce its serial
    fallback through the typed event stream."""
    events = []
    api.run("sweep",
            params=dict(rates=[0.3], repeats=1, images=60, rows=8, cols=4),
            executor="shared_memory", n_jobs=2, on_event=events.append)
    warnings_seen = [e for e in events if isinstance(e, RunWarning)]
    assert any("serial" in w.message for w in warnings_seen)


def test_report_json_roundtrip(tmp_path):
    report = api.run("sweep", params=TINY)
    path = report.save(tmp_path / "report.json")
    payload = json.loads(path.read_text())
    assert payload["experiment"] == "sweep"
    assert payload["params"]["rates"] == [0.0, 0.3]
    assert payload["series"][0]["label"] == "bitflip"
    assert len(payload["series"][0]["mean"]) == 2
    # each series serializes its own fault-free baseline
    assert payload["series"][0]["baseline"] == payload["baseline"]
    assert report.artifacts["report"] == str(path)


def test_report_save_is_atomic(tmp_path, monkeypatch):
    """``repro run --out`` can never leave a torn half-report: a crash
    mid-write preserves the previous complete file (regression for the
    direct ``path.write_text`` save, which truncated before writing)."""
    import repro.api.report as report_module

    report = api.run("sweep", params=TINY)
    target = tmp_path / "report.json"
    target.write_text('{"old": "complete"}')

    real_replace = report_module.os.replace

    def torn_replace(src, dst):
        raise OSError("simulated crash between write and publish")

    monkeypatch.setattr(report_module.os, "replace", torn_replace)
    with pytest.raises(OSError, match="simulated crash"):
        report.save(target)
    # the old file is untouched and the temp sibling was cleaned up
    assert json.loads(target.read_text()) == {"old": "complete"}
    assert list(tmp_path.iterdir()) == [target]

    monkeypatch.setattr(report_module.os, "replace", real_replace)
    path = report.save(target)
    assert json.loads(path.read_text())["experiment"] == "sweep"
    assert list(tmp_path.iterdir()) == [target]


# -- bit-identity against plain campaigns ---------------------------------

def _lenet_test(images):
    from repro.experiments import get_mnist, trained_lenet
    model = trained_lenet()
    _, test = get_mnist()
    return model, test.subset(images)


def _campaign_sweeps(model, test, spec_factory, xs, series, repeats,
                     rows=40, cols=10):
    """``{label: SweepResult}`` and the ``(series, done, total, point,
    repeat, accuracy)`` progress sequence of running every ``(label,
    layers)`` of ``series`` in turn on one plain ``FaultCampaign``."""
    from repro.core import FaultCampaign
    results, cells = {}, []
    with FaultCampaign(model, test.x, test.y, rows=rows,
                       cols=cols) as campaign:
        for label, layers in series:
            def progress(done, total, cell, label=label):
                cells.append((label, done, total, *cell))
            results[label] = campaign.run(
                spec_factory, xs, repeats=repeats, layers=layers,
                label=label, progress=progress)
    return results, cells


def _cell_stream(events):
    return [(e.series, e.done, e.total, e.point, e.repeat, e.accuracy)
            for e in events if isinstance(e, CellDone)]


def test_fig4a_registry_matches_legacy_driver():
    """fig4a is one campaign running a series per mapped layer, then
    every layer combined: accuracies, baselines, the memo's cumulative
    counts and the CellDone stream equal a plain FaultCampaign loop's."""
    from repro.core import FaultSpec
    from repro.models.lenet import LENET_MAPPED_LAYERS
    model, test = _lenet_test(TINY["images"])
    direct, cells = _campaign_sweeps(
        model, test, FaultSpec.bitflip, TINY["rates"],
        [*((name, [name]) for name in LENET_MAPPED_LAYERS),
         ("combined", None)],
        TINY["repeats"], rows=TINY["rows"], cols=TINY["cols"])
    events = []
    report = api.run("fig4a", params=TINY, on_event=events.append)
    assert list(report.raw) == list(direct)
    for label, result in direct.items():
        np.testing.assert_array_equal(report.raw[label].accuracies,
                                      result.accuracies)
        assert report.raw[label].baseline == result.baseline
        assert (report.raw[label].meta["input_cache"]
                == result.meta["input_cache"])
    assert _cell_stream(events) == cells


def test_fig4a_quick_renders_only_the_images_it_evaluates(monkeypatch):
    """A cold process renders the 60 test images ``fig4a --quick``
    evaluates and, with warm weights, no training image.  Set-up shows
    in the run's telemetry as ``data`` and ``model`` phases."""
    from functools import lru_cache

    from repro.data import synth_mnist
    from repro.experiments import common
    common.trained_lenet()  # warm weights
    generate = synth_mnist.generate_dataset
    rendered = {}

    def counting(n, seed=0, size=28, count=None):
        images, labels = generate(n, seed, size, count)
        rendered[seed] = rendered.get(seed, 0) + len(images)
        return images, labels

    monkeypatch.setattr(synth_mnist, "generate_dataset", counting)
    # an empty memo stands in for get_mnist's (as after cache_clear());
    # the process-wide one, and the splits it holds, come back afterwards
    monkeypatch.setattr(common, "get_mnist",
                        lru_cache(maxsize=4)(common.get_mnist.__wrapped__))
    report = api.run("fig4a", quick=True)
    assert rendered == {42: 0, 10_042: 60}
    assert {"data", "model"} <= set(report.meta["telemetry"]["phases"])


def test_fig5a_registry_matches_legacy_driver():
    from repro.core import FaultSpec
    from repro.experiments import get_imagenet, trained_zoo_model
    _, test = get_imagenet()
    direct, cells = _campaign_sweeps(
        trained_zoo_model("binary_alexnet"), test.subset(60),
        FaultSpec.bitflip, [0.0, 0.2], [("binary_alexnet", None)], 1)
    events = []
    report = api.run("fig5a", params=dict(models=["binary_alexnet"],
                                          rates=[0.0, 0.2], repeats=1,
                                          images=60),
                     on_event=events.append)
    np.testing.assert_array_equal(
        report.raw["binary_alexnet"].accuracies,
        direct["binary_alexnet"].accuracies)
    assert (report.raw["binary_alexnet"].baseline
            == direct["binary_alexnet"].baseline)
    assert _cell_stream(events) == cells


def test_end_of_life_registry_matches_legacy_driver():
    from repro.scenarios import run_scenario
    model, test = _lenet_test(60)
    direct = run_scenario("end-of-life", model, test.x, test.y, repeats=1,
                          rows=8, cols=4)
    events = []
    report = api.run("end-of-life",
                     params=dict(repeats=1, images=60, rows=8, cols=4),
                     on_event=events.append)
    np.testing.assert_array_equal(report.raw.accuracies, direct.accuracies)
    assert report.baseline == direct.baseline
    # one CellDone per grid cell (x one repeat), one CheckpointDone per age
    kinds = [type(event) for event in events]
    assert kinds.count(CellDone) == len(direct.grid.cells)
    assert kinds.count(CheckpointDone) == direct.grid.n_checkpoints


@pytest.mark.parametrize("executor,backend", [
    ("serial", "packed"),
    ("shared_memory", "float"),
    ("shared_memory", "packed"),
])
def test_sweep_bit_identical_across_executors_and_backends(executor,
                                                           backend):
    reference = api.run("sweep", params=TINY)
    result = api.run("sweep", params=TINY, executor=executor, n_jobs=2,
                     backend=backend)
    np.testing.assert_array_equal(result.raw.accuracies,
                                  reference.raw.accuracies)
    assert result.baseline == reference.baseline


@pytest.mark.parametrize("executor,backend", [
    ("serial", "packed"),
    ("shared_memory", "packed"),
])
def test_end_of_life_bit_identical_across_executors_and_backends(
        executor, backend):
    params = dict(repeats=1, images=60, rows=8, cols=4)
    reference = api.run("end-of-life", params=params)
    result = api.run("end-of-life", params=params, executor=executor,
                     n_jobs=2, backend=backend)
    np.testing.assert_array_equal(result.raw.accuracies,
                                  reference.raw.accuracies)
    assert result.baseline == reference.baseline


# -- journal / resume through RunRequest ----------------------------------

def test_sweep_journal_resume_through_request(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    first = api.run("sweep", params=TINY, journal=str(journal))
    assert first.meta["resumed_cells"] == 0
    assert first.artifacts["journal"] == str(journal)

    # an existing journal without resume=True is refused before running
    with pytest.raises(ApiError, match="already exists"):
        api.run("sweep", params=TINY, journal=str(journal))

    resumed = api.run("sweep", params=TINY, journal=str(journal),
                      resume=True)
    assert resumed.meta["resumed_cells"] == 4
    np.testing.assert_array_equal(resumed.raw.accuracies,
                                  first.raw.accuracies)


@pytest.mark.parametrize("engine", [
    {},
    {"executor": "shared_memory", "n_jobs": 2},
], ids=["serial", "shared_memory"])
def test_torn_journal_resume_streams_one_run_warning(tmp_path, engine):
    """A resumed journal's torn final line reaches the event stream as
    a RunWarning on every executor, never as a Python warning; the
    fully journaled grid left to run adds no pool warning.  Under the
    api the last line is a trace span, so the warning says no cell is
    lost, and none is re-evaluated."""
    from repro.testing import truncate_last_line

    journal = tmp_path / "sweep.jsonl"
    first = api.run("sweep", quick=True, journal=str(journal), **engine)
    truncate_last_line(journal)
    events = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        resumed = api.run("sweep", quick=True, journal=str(journal),
                          resume=True, on_event=events.append, **engine)
    messages = [e.message for e in events if isinstance(e, RunWarning)]
    assert len(messages) == 1 and "torn" in messages[0]
    assert "it was a trace line; no cell is lost" in messages[0]
    assert "re-evaluated" not in messages[0]
    assert resumed.meta["resumed_cells"] == first.raw.accuracies.size
    assert not any(isinstance(e, CellDone) for e in events)


def test_complete_journal_resumed_on_the_pool_warns_nothing(tmp_path):
    """Resuming a complete journal leaves no job, which is not a grid
    too small for the pool."""
    journal = tmp_path / "sweep.jsonl"
    engine = dict(executor="shared_memory", n_jobs=2)
    api.run("sweep", quick=True, journal=str(journal), **engine)
    events = []
    report = api.run("sweep", quick=True, journal=str(journal), resume=True,
                     on_event=events.append, **engine)
    assert report.meta["resumed_cells"] == 2
    assert [e for e in events if isinstance(e, RunWarning)] == []


def test_fig4a_derives_one_journal_per_series(tmp_path):
    journal = tmp_path / "fig4a.jsonl"
    report = api.run("fig4a", params=TINY, journal=str(journal))
    series = set(report.raw)
    derived = {path.name for path in tmp_path.glob("fig4a.*.jsonl")}
    assert derived == {f"fig4a.{label}.jsonl" for label in series}

    resumed = api.run("fig4a", params=TINY, journal=str(journal),
                      resume=True)
    cells = len(TINY["rates"]) * TINY["repeats"] * len(series)
    assert resumed.meta["resumed_cells"] == cells
    for label in series:
        np.testing.assert_array_equal(resumed.raw[label].accuracies,
                                      report.raw[label].accuracies)


def test_scenario_journal_resume_through_request(tmp_path):
    journal = tmp_path / "eol.jsonl"
    params = dict(repeats=1, images=60, rows=8, cols=4)
    first = api.run("end-of-life", params=params, journal=str(journal))
    resumed = api.run("end-of-life", params=params, journal=str(journal),
                      resume=True)
    assert resumed.meta["resumed_cells"] == len(first.raw.grid.cells)
    np.testing.assert_array_equal(resumed.raw.accuracies,
                                  first.raw.accuracies)
