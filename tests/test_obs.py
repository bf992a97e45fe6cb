"""Tests for ``repro.obs``: clocks, spans, metrics, exporters, and the
end-to-end telemetry contract.

The two load-bearing properties:

* **determinism** — instrumented runs are bit-identical to
  uninstrumented runs on every executor × backend combination, and a
  :class:`FakeClock` makes the trace itself byte-reproducible;
* **compatibility** — the legacy ``meta`` counter blocks
  (``resilience``, ``input_cache``) stay attached (now always, even on
  clean serial runs), with the registry as the canonical store behind
  them.
"""

import http.client
import json

import numpy as np
import pytest

import service_support  # noqa: F401  (registers svc-tiny)
from repro import api, nn
from repro.api.events import RunFinished, TelemetrySnapshot
from repro.api.request import RunRequest
from repro.binary import QuantDense
from repro.cli import main as cli_main
from repro.core import FaultCampaign, FaultSpec
from repro.core.resilience import new_stats
from repro.obs import (FakeClock, MetricsRegistry, Observability,
                       SystemClock, Tracer, activated, current,
                       get_registry, render_prometheus, reset_registry)
from repro.obs.trace import load_trace, render_timeline, span_payload
from repro.service import ServiceClient, start_in_thread


@pytest.fixture(scope="module")
def trained_setup():
    """A tiny trained BNN with held-out data (engine-test idiom)."""
    rng = np.random.default_rng(0)
    n = 300
    x = rng.choice([-1.0, 1.0], size=(n, 16)).astype(np.float32)
    y = (x[:, :8].sum(axis=1) > 0).astype(int)
    model = nn.Sequential([
        QuantDense(16, input_quantizer="ste_sign",
                   kernel_quantizer="ste_sign"),
        nn.BatchNorm(),
        nn.Sign(),
        QuantDense(2, input_quantizer="ste_sign",
                   kernel_quantizer="ste_sign"),
        nn.BatchNorm(),
    ]).build((16,), seed=0)
    trainer = nn.Trainer(nn.Adam(0.01), seed=0)
    trainer.fit(model, x[:220], y[:220], epochs=10, batch_size=32)
    return model, x[220:], y[220:]


@pytest.fixture
def fresh_registry():
    """An emptied process registry, re-emptied afterwards (the service
    endpoint tests scrape the process-global one)."""
    reset_registry()
    yield get_registry()
    reset_registry()


# -- clocks ----------------------------------------------------------------

def test_fake_clock_is_a_pure_function_of_reads():
    clock = FakeClock(start=10.0, tick=0.5)
    assert [clock.now() for _ in range(3)] == [10.0, 10.5, 11.0]
    clock.advance(4.0)
    assert clock.now() == 15.5
    again = FakeClock(start=10.0, tick=0.5)
    assert [again.now() for _ in range(3)] == [10.0, 10.5, 11.0]


def test_fake_clock_rejects_negative_advance():
    with pytest.raises(ValueError):
        FakeClock().advance(-1.0)


def test_system_clock_is_monotonic():
    clock = SystemClock()
    readings = [clock.now() for _ in range(5)]
    assert readings == sorted(readings)


# -- tracer ----------------------------------------------------------------

def test_tracer_nests_spans_and_survives_exceptions():
    tracer = Tracer(FakeClock(tick=1.0))
    with pytest.raises(RuntimeError):
        with tracer.span("outer", label="x"):
            with tracer.span("inner"):
                raise RuntimeError("boom")
    inner, outer = tracer.spans  # children close (and record) first
    assert inner.name == "inner" and outer.name == "outer"
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert outer.attrs == {"label": "x"}
    assert inner.duration > 0 and outer.duration > inner.duration


def test_tracer_fake_clock_traces_are_byte_identical():
    def trace():
        tracer = Tracer(FakeClock(tick=0.25))
        with tracer.span("campaign", cells=4):
            with tracer.span("plan"):
                pass
            with tracer.span("dispatch"):
                for _ in range(4):
                    with tracer.span("evaluate"):
                        pass
        return [span_payload(record) for record in tracer.spans]

    assert json.dumps(trace()) == json.dumps(trace())


def test_tracer_sink_tee_chains_and_restores():
    tracer = Tracer(FakeClock(tick=1.0))
    outer_sink, inner_sink = [], []
    with tracer.sink_to(outer_sink.append):
        with tracer.span("a"):
            pass
        with tracer.sink_to(inner_sink.append):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    with tracer.span("d"):
        pass
    assert [r.name for r in outer_sink] == ["a", "b", "c"]
    assert [r.name for r in inner_sink] == ["b"]
    assert [r.name for r in tracer.spans] == ["a", "b", "c", "d"]


def test_phase_totals_sum_by_name():
    tracer = Tracer(FakeClock(tick=1.0))
    for _ in range(3):
        with tracer.span("evaluate"):
            pass
    totals = tracer.phase_totals()
    assert totals == {"evaluate": 3.0}


# -- metrics ---------------------------------------------------------------

def test_counter_gauge_histogram_semantics():
    registry = MetricsRegistry()
    jobs = registry.counter("jobs_total", "jobs")
    jobs.inc()
    jobs.inc(2.0)
    assert jobs.value == 3.0
    with pytest.raises(ValueError):
        jobs.inc(-1.0)

    depth = registry.gauge("depth")
    depth.set(4)
    depth.inc()
    depth.dec(2.0)
    assert depth.value == 3.0

    latency = registry.histogram("latency_seconds",
                                 buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 0.5, 100.0):
        latency.observe(value)
    assert latency.count == 4
    assert latency.total == pytest.approx(101.05)
    assert latency.counts == [1, 2, 0, 1]  # last bin is +Inf overflow

    # get-or-create returns the same instance; a kind clash raises
    assert registry.counter("jobs_total") is jobs
    with pytest.raises(ValueError):
        registry.gauge("jobs_total")


def test_labelled_series_are_distinct():
    registry = MetricsRegistry()
    registry.counter("cells_total", executor="serial").inc(2)
    registry.counter("cells_total", executor="shared_memory").inc(5)
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {
        "cells_total{executor=serial}": 2.0,
        "cells_total{executor=shared_memory}": 5.0}


def test_snapshot_fold_adds_counters_overwrites_gauges():
    source, target = MetricsRegistry(), MetricsRegistry()
    source.counter("hits_total").inc(3)
    source.gauge("rate").set(0.75)
    target.counter("hits_total").inc(10)
    target.gauge("rate").set(0.1)
    target.fold_snapshot(source.snapshot())
    assert target.counter("hits_total").value == 13.0
    assert target.gauge("rate").value == 0.75


def test_render_prometheus_text_format():
    registry = MetricsRegistry()
    registry.counter("repro_jobs_total", "jobs ever admitted").inc(2)
    registry.gauge("repro_queue_depth", "queued jobs").set(1)
    registry.histogram("repro_latency_seconds", "job latency",
                       buckets=(0.5, 5.0)).observe(1.0)
    text = render_prometheus(registry)
    assert "# HELP repro_jobs_total jobs ever admitted" in text
    assert "# TYPE repro_jobs_total counter" in text
    assert "repro_jobs_total 2" in text
    assert "# TYPE repro_queue_depth gauge" in text
    assert 'repro_latency_seconds_bucket{le="0.5"} 0' in text
    assert 'repro_latency_seconds_bucket{le="5"} 1' in text
    assert 'repro_latency_seconds_bucket{le="+Inf"} 1' in text
    assert "repro_latency_seconds_sum 1" in text
    assert "repro_latency_seconds_count 1" in text


# -- ambient activation ----------------------------------------------------

def test_activated_scopes_the_ambient_observability():
    assert current() is None
    obs = Observability(clock=FakeClock(tick=1.0))
    with activated(obs):
        assert current() is obs
        with activated(None):  # shielding nested uninstrumented work
            assert current() is None
        assert current() is obs
    assert current() is None


# -- engine instrumentation ------------------------------------------------

SWEEP = dict(xs=[0.0, 0.3], repeats=2, seed=11)


def _observed_sweep(model, x, y, batches):
    """Run SWEEP under a FakeClock on ``batches`` copies of the test set,
    one copy per test batch."""
    obs = Observability(clock=FakeClock(tick=0.5))
    campaign = FaultCampaign(model, np.tile(x, (batches, 1)),
                             np.tile(y, batches), rows=8, cols=4,
                             batch_size=len(x), obs=obs)
    campaign.run(FaultSpec.bitflip, **SWEEP)
    return obs


@pytest.mark.parametrize("batches", [1, 4])
def test_campaign_spans_and_metrics_under_fake_clock(trained_setup,
                                                     batches):
    """Telemetry costs a fixed number of spans and counter updates per
    cell, however many test batches a cell evaluates: this is the gate
    on telemetry overhead (perfbench's ``trace.overhead_pct`` is the
    wall-clock view)."""
    model, x, y = trained_setup
    obs = _observed_sweep(model, x, y, batches)
    names = [record.name for record in obs.tracer.spans]
    assert names.count("campaign") == 1
    assert names.count("plan") == 1
    assert names.count("dispatch") == 1
    assert names.count("reduce") == 1
    assert names.count("evaluate") == 4  # one per fresh grid cell
    campaign_span = [r for r in obs.tracer.spans
                     if r.name == "campaign"][0]
    assert campaign_span.attrs["cells"] == 4
    assert campaign_span.parent_id is None
    # spans nest under the campaign root; evaluates under dispatch
    dispatch = [r for r in obs.tracer.spans if r.name == "dispatch"][0]
    for record in obs.tracer.spans:
        if record.name == "evaluate":
            assert record.parent_id == dispatch.span_id
    snapshot = obs.metrics.snapshot()
    assert snapshot["counters"]["repro_cells_evaluated_total"] == 4.0
    assert snapshot["counters"]["repro_cells_resumed_total"] == 0.0
    assert "repro_input_cache_hit_rate" in snapshot["gauges"]
    assert snapshot["counters"]["repro_jobs_retried_total"] == 0.0
    # the one-batch run traces the same spans, at the same FakeClock
    # times, and counts the same events — except input-cache lookups,
    # which happen once per batch
    reference = _observed_sweep(model, x, y, 1)
    assert obs.tracer.spans == reference.tracer.spans
    per_batch = {"repro_input_cache_hits_total",
                 "repro_input_cache_misses_total"}
    counters = reference.metrics.snapshot()["counters"]
    assert ({k: v for k, v in snapshot["counters"].items()
             if k not in per_batch}
            == {k: v for k, v in counters.items() if k not in per_batch})


def test_instrumented_runs_bit_identical_to_uninstrumented(trained_setup):
    """The acceptance criterion: every executor × backend combo yields
    the exact same accuracies with and without instrumentation."""
    model, x, y = trained_setup
    combos = [("serial", "float"), ("serial", "packed"),
              ("shared_memory", "float"), ("shared_memory", "packed")]
    for executor, backend in combos:
        plain = FaultCampaign(model, x, y, rows=8, cols=4,
                              executor=executor, n_jobs=2,
                              backend=backend)
        with plain:
            bare = plain.run(FaultSpec.bitflip, **SWEEP)
        observed = FaultCampaign(model, x, y, rows=8, cols=4,
                                 executor=executor, n_jobs=2,
                                 backend=backend,
                                 obs=Observability(
                                     clock=FakeClock(tick=0.125)))
        with observed:
            traced = observed.run(FaultSpec.bitflip, **SWEEP)
        np.testing.assert_array_equal(bare.accuracies, traced.accuracies,
                                      err_msg=f"{executor}/{backend}")
        assert bare.baseline == traced.baseline


def test_resilience_counters_always_attached(trained_setup):
    """Satellite regression: even a clean, unsupervised serial run must
    carry a (zeroed) ``meta["resilience"]`` block."""
    model, x, y = trained_setup
    result = FaultCampaign(model, x, y, rows=8, cols=4).run(
        FaultSpec.bitflip, **SWEEP)
    assert result.meta["resilience"] == new_stats()
    assert result.meta["resilience"]["retries"] == 0
    assert result.meta["resilience"]["quarantined"] == []


def test_journaled_resume_keeps_counters_and_traces(tmp_path,
                                                    trained_setup):
    """The journaled-resume path: trace lines interleave with cells
    without breaking resume, and the resumed run still attaches the
    (zeroed) resilience block."""
    model, x, y = trained_setup
    journal = tmp_path / "sweep.jsonl"
    obs = Observability(clock=FakeClock(tick=0.5))
    first = FaultCampaign(model, x, y, rows=8, cols=4, obs=obs).run(
        FaultSpec.bitflip, journal=journal, **SWEEP)
    lines = [json.loads(line)
             for line in journal.read_text().splitlines()[1:]]
    traced = [line for line in lines if line.get("kind") == "trace"]
    cells = [line for line in lines if "accuracy" in line]
    assert len(cells) == 4
    # plan/dispatch/evaluate/reduce close while the journal is open;
    # the campaign root closes after the sink detaches and is not
    # journaled (the renderer handles the orphaned subtree)
    journaled_names = {line["span"] for line in traced}
    assert {"plan", "dispatch", "evaluate", "reduce"} <= journaled_names

    resumed = FaultCampaign(model, x, y, rows=8, cols=4,
                            obs=Observability(
                                clock=FakeClock(tick=0.5))).run(
        FaultSpec.bitflip, journal=journal, **SWEEP)
    np.testing.assert_array_equal(first.accuracies, resumed.accuracies)
    assert resumed.meta["resumed_cells"] == 4
    assert resumed.meta["resilience"] == new_stats()


def test_uninstrumented_journaled_run_stays_trace_free(tmp_path,
                                                       trained_setup):
    model, x, y = trained_setup
    journal = tmp_path / "plain.jsonl"
    FaultCampaign(model, x, y, rows=8, cols=4).run(
        FaultSpec.bitflip, journal=journal, **SWEEP)
    assert load_trace(journal) == []


# -- trace loading and rendering -------------------------------------------

def test_load_trace_rejects_non_journals(tmp_path):
    missing = tmp_path / "nope.jsonl"
    with pytest.raises(ValueError):
        load_trace(missing)
    garbage = tmp_path / "garbage.jsonl"
    garbage.write_text("this is not json\n")
    with pytest.raises(ValueError):
        load_trace(garbage)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_trace(empty)


def test_load_trace_tolerates_torn_tail(tmp_path):
    journal = tmp_path / "torn.jsonl"
    trace_line = json.dumps({"kind": "trace", "span": "plan", "id": 1,
                             "parent": None, "start": 0.0,
                             "duration": 1.0, "attrs": {}})
    journal.write_text('{"seed": 0}\n' + trace_line + '\n{"kind": "tra')
    spans = load_trace(journal)
    assert [record.name for record in spans] == ["plan"]


def test_render_timeline_tree_folding_and_totals(tmp_path, trained_setup):
    model, x, y = trained_setup
    journal = tmp_path / "sweep.jsonl"
    obs = Observability(clock=FakeClock(tick=0.5))
    FaultCampaign(model, x, y, rows=8, cols=4, obs=obs).run(
        FaultSpec.bitflip, journal=journal,
        xs=[0.0, 0.1, 0.2], repeats=3, seed=11)  # 9 evaluate spans
    text = render_timeline(load_trace(journal))
    assert "dispatch" in text and "plan" in text and "reduce" in text
    assert "evaluate x9" in text  # >4 siblings fold into one line
    assert "per-phase totals:" in text
    assert "%" in text
    assert render_timeline([]) == "no trace spans recorded\n"


def test_cli_trace_command(tmp_path, trained_setup, capsys):
    model, x, y = trained_setup
    journal = tmp_path / "sweep.jsonl"
    FaultCampaign(model, x, y, rows=8, cols=4,
                  obs=Observability(clock=FakeClock(tick=0.5))).run(
        FaultSpec.bitflip, journal=journal, **SWEEP)
    assert cli_main(["trace", str(journal)]) == 0
    out = capsys.readouterr().out
    assert "per-phase totals:" in out
    assert "dispatch" in out
    # a non-journal path is a validation error: uniform exit code 2
    assert cli_main(["trace", str(tmp_path / "missing.jsonl")]) == 2


# -- api layer: ambient obs and the telemetry snapshot ---------------------

def test_api_run_attaches_telemetry_and_emits_snapshot():
    events = []
    report = api.run("svc-tiny", params={"rates": [0.0, 0.2],
                                         "repeats": 2},
                     on_event=events.append)
    telemetry = report.meta["telemetry"]
    assert {"run", "campaign", "plan", "dispatch", "reduce"} \
        <= set(telemetry["phases"])
    assert telemetry["counters"]["repro_cells_evaluated_total"] == 4.0
    assert "repro_input_cache_hit_rate" in telemetry["gauges"]
    snapshots = [e for e in events if isinstance(e, TelemetrySnapshot)]
    assert len(snapshots) == 1
    assert snapshots[0].phases == telemetry["phases"]
    assert snapshots[0].counters == telemetry["counters"]
    # ordering: the snapshot lands right before RunFinished
    assert isinstance(events[-1], RunFinished)
    assert events[-2] is snapshots[0]
    # the ambient observability deactivates once the run is over
    assert current() is None


# -- service: the Prometheus scrape endpoint -------------------------------

def test_service_metrics_endpoint(tmp_path, fresh_registry):
    with start_in_thread(tmp_path / "store", workers=1) as port:
        client = ServiceClient(port=port)
        record = client.submit(RunRequest("svc-tiny", params={
            "rates": [0.0, 0.2], "repeats": 2}))
        assert client.watch(record.job_id).state.value == "done"

        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=30)
        try:
            connection.request("GET", "/v1/metrics")
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") \
                == "text/plain; version=0.0.4; charset=utf-8"
            text = response.read().decode("utf-8")
        finally:
            connection.close()

    assert "# TYPE repro_jobs_submitted_total counter" in text
    assert "repro_jobs_submitted_total 1" in text
    assert "repro_jobs_done_total 1" in text
    assert "repro_workers_total 1" in text
    assert "repro_queue_depth 0" in text
    # the job's latency histogram recorded exactly one observation
    assert 'repro_job_latency_seconds_bucket{le="+Inf"} 1' in text
    assert "repro_job_latency_seconds_count 1" in text
    # engine telemetry folded in from the finished run
    assert "repro_cells_evaluated_total 4" in text
    assert "repro_input_cache_hit_rate" in text
    # SSE stream lag histogram exists once a client streamed/watched
    assert "# TYPE repro_sse_lag_frames histogram" in text
