"""Property tests for the service wire schema.

Two contracts, both load-bearing for the service's bit-identity claim:

* **round-trip** — every payload family (requests, events, reports,
  job records) survives ``encode → json → decode`` unchanged, for
  arbitrary well-formed values (hypothesis when available, a
  representative parametrized set otherwise);
* **strictness** — unknown fields, unknown event/state names, wrong
  schema versions, and type violations raise :class:`WireError` (a
  ``ValueError`` → CLI exit 2 / HTTP 400), and a malformed submission
  posted to a live server is refused without ever constructing a job.
"""

import json

import pytest

from repro.api.events import (CellDone, CheckpointDone, ExecutorDegraded,
                              JobQuarantined, JobRetried, JobStateChanged,
                              RunFinished, RunStarted, RunWarning,
                              WorkerLost)
from repro.api.report import RunReport, SeriesReport
from repro.api.request import RunRequest
from repro.service import wire
from repro.service.jobs import JobRecord, JobState

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - the container ships hypothesis
    HAVE_HYPOTHESIS = False


def roundtrip(payload):
    """encode → the actual wire (JSON text) → decode input."""
    return json.loads(json.dumps(payload))


# -- example payloads (the fallback set; hypothesis generalizes them) ------

EXAMPLE_REQUESTS = [
    (RunRequest("fig4a"), False),
    (RunRequest("svc-tiny", params={"rates": [0.0, 0.5], "repeats": 3},
                executor="shared_memory", n_jobs=4, backend="packed",
                cache_bytes=1 << 20, quick=True, retries=0,
                job_timeout=2.5, degrade=False), True),
]

EXAMPLE_REPORT = RunReport(
    experiment="svc-tiny", params={"rates": [0.0, 0.5]},
    engine={"executor": "serial", "backend": "float"},
    series=[SeriesReport("svc", [0.0, 0.5], [0.9, 0.4], [0.0, 0.1],
                         baseline=0.9),
            SeriesReport("other", [1.0], [0.5], [0.0])],
    tables={"runtime": {"columns": ["a"], "rows": [[1.5]]}},
    baseline=0.9, meta={"events": {"CellDone": 6}},
    artifacts={"journal": "/tmp/x.jsonl"})

EXAMPLE_EVENTS = [
    RunStarted(experiment="fig4a", params={"repeats": 2}),
    CellDone(series="conv1", done=1, total=12, point=0, repeat=1,
             accuracy=0.625),
    CheckpointDone(index=0, total=3, age=1e6),
    RunWarning(message="pool fell back to serial"),
    JobRetried(point=1, repeat=2, attempt=1, delay=0.5, cause="timeout",
               error="TimeoutError"),
    JobQuarantined(point=1, repeat=2, attempts=3, error="boom"),
    WorkerLost(reason="SIGKILL", in_flight=2),
    ExecutorDegraded(from_mode="shared_memory", to_mode="serial",
                     reason="init failed"),
    JobStateChanged(job_id="job-abc", state="running", error=""),
    RunFinished(report=EXAMPLE_REPORT),
]


def make_record(state=JobState.QUEUED, durable=False, error=""):
    request, _ = EXAMPLE_REQUESTS[1 if durable else 0]
    return JobRecord(job_id="job-00ff", seq=3, client="cli", state=state,
                     durable=durable, request=request, error=error,
                     resumes=1 if durable else 0, cache_bytes=1 << 20)


# -- round-trips -----------------------------------------------------------

@pytest.mark.parametrize("request_, durable", EXAMPLE_REQUESTS)
def test_request_roundtrip_examples(request_, durable):
    decoded, decoded_durable = wire.decode_request(
        roundtrip(wire.encode_request(request_, durable)))
    assert decoded == request_
    assert decoded_durable == durable
    assert decoded.journal is None and decoded.resume is False


@pytest.mark.parametrize("event", EXAMPLE_EVENTS,
                         ids=lambda e: type(e).__name__)
def test_event_roundtrip_examples(event):
    assert wire.decode_event(roundtrip(wire.encode_event(event))) == event


def test_report_roundtrip_example():
    decoded = wire.decode_report(roundtrip(wire.encode_report(
        EXAMPLE_REPORT)))
    assert decoded == EXAMPLE_REPORT
    assert decoded.raw is None


@pytest.mark.parametrize("state", list(JobState))
def test_job_record_roundtrip_examples(state):
    record = make_record(state=state, durable=True,
                         error="boom" if state is JobState.FAILED else "")
    assert wire.decode_job(roundtrip(wire.encode_job(record))) == record


if HAVE_HYPOTHESIS:
    finite = st.floats(allow_nan=False, allow_infinity=False)
    names = st.text(min_size=1, max_size=12)
    json_scalars = st.one_of(st.booleans(), st.integers(), finite, names,
                             st.none())
    param_dicts = st.dictionaries(names, st.one_of(
        json_scalars, st.lists(json_scalars, max_size=3)), max_size=4)

    requests = st.builds(
        RunRequest,
        experiment=names,
        params=param_dicts,
        executor=st.sampled_from(["serial", "shared_memory"]),
        n_jobs=st.one_of(st.none(), st.integers(0, 64)),
        backend=st.sampled_from(["float", "packed"]),
        cache_bytes=st.one_of(st.none(), st.integers(0, 1 << 40)),
        quick=st.booleans(),
        retries=st.integers(0, 9),
        job_timeout=st.one_of(st.none(),
                              st.floats(min_value=0.001, max_value=1e6,
                                        allow_nan=False)),
        degrade=st.booleans())

    series_reports = st.builds(
        SeriesReport, label=names,
        xs=st.lists(finite, max_size=4), mean=st.lists(finite, max_size=4),
        std=st.lists(finite, max_size=4),
        baseline=st.one_of(st.none(), finite))

    reports = st.builds(
        RunReport, experiment=names, params=param_dicts,
        engine=param_dicts, series=st.lists(series_reports, max_size=3),
        tables=st.dictionaries(names, param_dicts, max_size=2),
        baseline=st.one_of(st.none(), finite), meta=param_dicts,
        artifacts=st.dictionaries(names, names, max_size=2))

    events = st.one_of(
        st.builds(RunStarted, experiment=names, params=param_dicts),
        st.builds(CellDone, series=names, done=st.integers(0, 99),
                  total=st.integers(0, 99), point=st.integers(0, 99),
                  repeat=st.integers(0, 99), accuracy=finite),
        st.builds(CheckpointDone, index=st.integers(0, 9),
                  total=st.integers(1, 9), age=finite),
        st.builds(RunWarning, message=names),
        st.builds(JobRetried, point=st.integers(0, 9),
                  repeat=st.integers(0, 9), attempt=st.integers(1, 9),
                  delay=finite, cause=st.sampled_from(["error", "timeout"]),
                  error=names),
        st.builds(JobQuarantined, point=st.integers(0, 9),
                  repeat=st.integers(0, 9), attempts=st.integers(1, 9),
                  error=names),
        st.builds(WorkerLost, reason=names, in_flight=st.integers(0, 9)),
        st.builds(ExecutorDegraded, from_mode=names, to_mode=names,
                  reason=names),
        st.builds(JobStateChanged, job_id=names,
                  state=st.sampled_from([s.value for s in JobState]),
                  error=names),
        st.builds(RunFinished, report=reports))

    records = st.builds(
        make_record, state=st.sampled_from(list(JobState)),
        durable=st.booleans(), error=names)

    @settings(max_examples=60, deadline=None)
    @given(request_=requests, durable=st.booleans())
    def test_request_roundtrip_property(request_, durable):
        decoded, decoded_durable = wire.decode_request(
            roundtrip(wire.encode_request(request_, durable)))
        assert decoded == request_ and decoded_durable == durable

    @settings(max_examples=120, deadline=None)
    @given(event=events)
    def test_event_roundtrip_property(event):
        assert wire.decode_event(
            roundtrip(wire.encode_event(event))) == event

    @settings(max_examples=60, deadline=None)
    @given(report=reports)
    def test_report_roundtrip_property(report):
        assert wire.decode_report(
            roundtrip(wire.encode_report(report))) == report

    @settings(max_examples=30, deadline=None)
    @given(record=records)
    def test_job_record_roundtrip_property(record):
        assert wire.decode_job(roundtrip(wire.encode_job(record))) == record


# -- strictness ------------------------------------------------------------

def bad_payloads():
    good_request = wire.encode_request(RunRequest("fig4a"))
    good_event = wire.encode_event(EXAMPLE_EVENTS[1])
    good_report = wire.encode_report(EXAMPLE_REPORT)
    good_job = wire.encode_job(make_record())
    yield "request-unknown-field", wire.decode_request, \
        {**good_request, "surprise": 1}
    yield "request-journal-on-wire", wire.decode_request, \
        {**good_request, "journal": "/tmp/evil.jsonl"}
    yield "request-resume-on-wire", wire.decode_request, \
        {**good_request, "resume": True}
    yield "request-missing-experiment", wire.decode_request, \
        {k: v for k, v in good_request.items() if k != "experiment"}
    yield "request-durable-not-bool", wire.decode_request, \
        {**good_request, "durable": "yes"}
    yield "request-executor-not-string", wire.decode_request, \
        {**good_request, "executor": 5}
    yield "request-not-object", wire.decode_request, ["fig4a"]
    # Python's json.loads decodes a NaN token, which JSON does not have
    yield "request-nan-job-timeout", wire.decode_request, \
        {**good_request, "job_timeout": float("nan")}
    yield "event-unknown-type", wire.decode_event, \
        {"event": "CellExploded", "boom": 1}
    yield "event-unknown-field", wire.decode_event, \
        {**good_event, "surprise": 1}
    yield "event-missing-field", wire.decode_event, \
        {k: v for k, v in good_event.items() if k != "accuracy"}
    yield "event-no-type", wire.decode_event, {"series": "x"}
    yield "report-unknown-field", wire.decode_report, \
        {**good_report, "surprise": 1}
    yield "report-wrong-schema", wire.decode_report, \
        {**good_report, "schema_version": 99}
    yield "report-missing-field", wire.decode_report, \
        {k: v for k, v in good_report.items() if k != "tables"}
    yield "runfinished-missing-report", wire.decode_event, \
        {"event": "RunFinished"}
    yield "job-unknown-state", wire.decode_job, \
        {**good_job, "state": "exploded"}
    yield "job-unknown-field", wire.decode_job, {**good_job, "surprise": 1}
    yield "job-missing-field", wire.decode_job, \
        {k: v for k, v in good_job.items() if k != "seq"}
    yield "job-durable-mismatch", wire.decode_job, \
        {**good_job, "durable": True}


@pytest.mark.parametrize("label, decoder, payload",
                         list(bad_payloads()),
                         ids=[label for label, _, _ in bad_payloads()])
def test_malformed_payloads_rejected(label, decoder, payload):
    with pytest.raises(wire.WireError):
        decoder(roundtrip(payload))
    assert issubclass(wire.WireError, ValueError)  # the exit-2 class


def test_request_values_validated_after_decode():
    from repro.api import ApiError
    for executor in ("carrier-pigeon", "multiprocessing", "shm"):
        payload = wire.encode_request(RunRequest("fig4a"))
        payload["executor"] = executor
        with pytest.raises(ApiError, match="unknown executor"):
            wire.decode_request(payload)
    # JSON booleans are not counts, and flags must be real bools
    for field, value in (("quick", "false"), ("degrade", "no"),
                         ("job_timeout", True), ("n_jobs", True),
                         ("retries", True), ("cache_bytes", True)):
        payload = {**wire.encode_request(RunRequest("sweep")), field: value}
        with pytest.raises(ApiError, match=field):
            wire.decode_request(roundtrip(payload))


def test_canonical_result_strips_only_bookkeeping():
    direct = EXAMPLE_REPORT.to_dict()
    service = EXAMPLE_REPORT.to_dict()
    service["artifacts"] = {"journal": "/elsewhere/journals/job-1.jsonl"}
    service["engine"] = {**service["engine"],
                         "journal": "/elsewhere", "resume": True}
    service["meta"] = {**service["meta"], "resumed_cells": 5,
                       "journal": "/elsewhere",
                       "events": {"CellDone": 2}}
    assert wire.canonical_result(direct) == wire.canonical_result(service)
    tampered = EXAMPLE_REPORT.to_dict()
    tampered["series"][0]["mean"][0] += 1e-9
    assert wire.canonical_result(direct) != wire.canonical_result(tampered)


# -- nothing malformed ever reaches the queue ------------------------------

def test_malformed_submissions_never_queued(tmp_path):
    """POST every malformed body to a live server: each is refused with
    an HTTP 4xx and the job table stays empty."""
    import http.client

    from repro.service import ServiceClient, start_in_thread

    bodies = [b"not json at all",
              json.dumps({"experiment": "no-such-experiment"}).encode(),
              json.dumps({"experiment": "fig4a",
                          "journal": "/tmp/evil"}).encode(),
              json.dumps({"experiment": "fig4a",
                          "params": {"bogus_param": 1}}).encode(),
              json.dumps({"experiment": "sweep", "quick": "false"}).encode(),
              json.dumps({"experiment": "fig4a", "executor": 5}).encode(),
              json.dumps(["fig4a"]).encode()]
    with start_in_thread(tmp_path / "store", workers=1) as port:
        for body in bodies:
            connection = http.client.HTTPConnection("127.0.0.1", port,
                                                    timeout=30)
            connection.request("POST", "/v1/jobs", body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert 400 <= response.status < 500, body
            response.read()
            connection.close()
        client = ServiceClient(port=port)
        assert client.jobs() == []
        assert client.health()["jobs"] == {}
        # the store holds no record either — nothing was constructed
        assert list((tmp_path / "store" / "jobs").glob("*")) == []
