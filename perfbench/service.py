"""The ``service-jobs`` workload: one closed-loop client against a
``repro serve --workers 1`` subprocess.

The client submits one durable ``sweep`` job, follows its event stream
to the ``end`` frame, fetches the result, and only then submits the
next job, as a ``repro submit`` / ``repro watch`` / ``repro fetch``
user does.  Every job has its own seed.  Set-up is timed from spawning
the server until the warm-up job's result is fetched; it is repeated on
a second server, which in a traced run also carries the tracer.
"""

from __future__ import annotations

import json
import random
import signal
import subprocess
import sys
from time import perf_counter, sleep

import workloads
from session import BenchError, Session
from tracing import fold_reports, window_values

from repro.api.events import JobStateChanged
from repro.api.request import RunRequest
from repro.service.client import RequestRefused, ServiceClient
from repro.service.jobs import JobState

#: cells per job: one repeat of every sweep rate
CELLS_PER_JOB = len(workloads.JOB_RATES)
#: first job index of the traced window (its seeds never meet the
#: untraced window's)
TRACED_FIRST_JOB = 50_000
#: seconds of jobs between two host probes
PROBE_EVERY_S = 0.5
#: window jobs the server's peak RSS covers (with set-up and warm-up).
#: A fixed count, because the server keeps every job's record and the
#: peak creeps up with the jobs a time window happens to fit.
RSS_AFTER_JOBS = 50


class Server:
    """One ``repro serve`` subprocess on a fresh store."""

    def __init__(self, session: Session, name: str, trace_out=None):
        self.session = session
        self.dir = session.tmp / name
        self.dir.mkdir()
        self.trace_out = trace_out
        self.process: subprocess.Popen | None = None
        self.client: ServiceClient | None = None

    def start(self, timeout: float = 60.0) -> "Server":
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
                "--port-file", str(self.dir / "port"),
                "--store", str(self.dir / "store"), "--workers", "1"]
        env = {}
        if self.trace_out is not None:
            env["PERFBENCH_TRACE_OUT"] = str(self.trace_out)
        if self.trace_out is not None or self.session.tiny:
            argv += ["--preload", "serverhook"]
        self.process = self.session.spawn(argv, env=env)
        port_file = self.dir / "port"
        deadline = perf_counter() + timeout
        while not port_file.exists():
            if self.process.poll() is not None or perf_counter() > deadline:
                raise BenchError("repro serve did not start")
            sleep(0.002)
        self.client = ServiceClient(port=int(port_file.read_text()),
                                    client="perfbench", timeout=120.0)
        return self

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status",
                  encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise BenchError("no VmHWM for the server process")

    def stop(self) -> None:
        """Interrupt the server (it shuts down cleanly and runs its exit
        hooks) and wait for it; kill it if it does not exit."""
        if self.process is None or self.process.poll() is not None:
            return
        self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)
            raise BenchError("repro serve ignored SIGINT") from None


def run_job(client: ServiceClient, params: dict) -> dict:
    """Submit, watch and fetch one durable sweep job, timing each step."""
    start = perf_counter()
    try:
        record = client.submit(RunRequest("sweep", params=params),
                               durable=True)
    except RequestRefused as error:
        refused = perf_counter() - start
        return {"params": params, "state": "refused", "error": str(error),
                "latency": refused, "submit": refused, "queue_wait": 0.0,
                "run": 0.0, "fetch": 0.0, "result": None}
    submitted = perf_counter()
    running = final = None
    for kind, item in client.stream(record.job_id, timeout=120.0):
        if kind == "end":
            final = item
        elif isinstance(item, JobStateChanged) and item.state == "running":
            running = perf_counter()
    ended = perf_counter()
    payload = (client.result(record.job_id)
               if final.state is JobState.DONE else None)
    fetched = perf_counter()
    running = ended if running is None else running
    return {"params": params, "state": final.state.value,
            "latency": fetched - start, "submit": submitted - start,
            "queue_wait": running - submitted, "run": ended - running,
            "fetch": fetched - ended, "result": payload}


def set_up(session: Session, name: str, seed: int, images: int,
           trace_out=None) -> tuple[Server, float, dict]:
    """Spawn a server and fetch its warm-up job; returns the server, the
    set-up seconds and the warm-up job."""
    start = perf_counter()
    server = Server(session, name, trace_out).start()
    job = run_job(server.client, workloads.job_params(seed, 0, images))
    return server, perf_counter() - start, job


def closed_loop(server: Server, seed: int, images: int, first_job: int,
                probe, *, seconds=None, count=None) -> dict:
    """Jobs until ``seconds`` of jobs ran or exactly ``count`` jobs.  The
    host is probed before the first job and then between jobs (the
    server is idle then) after every :data:`PROBE_EVERY_S` of jobs; each
    such block of jobs is taken to the reference speed by its two
    probes.  The server's peak RSS is read after :data:`RSS_AFTER_JOBS`
    jobs (or at the end, if fewer ran)."""
    jobs, scaled_latencies, rss = [], [], None
    elapsed = scaled = block_s = 0.0
    block_start = 0
    probe.read()
    while True:
        start = perf_counter()
        jobs.append(run_job(server.client, workloads.job_params(
            seed, first_job + len(jobs), images)))
        spent = perf_counter() - start
        elapsed += spent
        block_s += spent
        if len(jobs) == RSS_AFTER_JOBS:
            rss = server.peak_rss_mb()
        if count is not None:
            done = len(jobs) == count
        else:
            done = elapsed + jobs[-1]["latency"] / 2 >= seconds
        if done or block_s >= PROBE_EVERY_S:
            factor = probe.bracket()
            scaled += block_s * factor
            scaled_latencies += [job["latency"] * factor
                                 for job in jobs[block_start:]]
            block_s, block_start = 0.0, len(jobs)
        if done:
            break
    return {"jobs": jobs, "window_s": elapsed,
            "scaled_latencies": scaled_latencies,
            "images_per_s": len(jobs) * CELLS_PER_JOB * images / scaled,
            "raw_images_per_s": len(jobs) * CELLS_PER_JOB * images / elapsed,
            "peak_rss_mb": server.peak_rss_mb() if rss is None else rss}


def run(session: Session, args, sizes: dict) -> dict:
    images = sizes["job_images"]
    probe = workloads.HostProbe()
    probe.read()
    server, setup_1, warm_1 = set_up(session, "s1", args.seed, images)
    try:
        loop = closed_loop(server, args.seed, images, 1, probe,
                           seconds=args.seconds)
    finally:
        server.stop()
    window = loop["jobs"]
    trace_out = session.tmp / "server-trace.json" if args.trace else None
    probe.read()
    server, setup_2, warm_2 = set_up(session, "s2", args.seed, images,
                                     trace_out)
    traced = []
    try:
        probe.read()
        if args.trace:
            traced_loop = closed_loop(server, args.seed, images,
                                      TRACED_FIRST_JOB, probe,
                                      count=sizes["traced_jobs"])
            traced = traced_loop["jobs"]
    finally:
        server.stop()

    every_job = [warm_1, warm_2, *window, *traced]
    done = [job for job in every_job if job["state"] == "done"]
    rng = random.Random(args.seed)
    # traced jobs first: their in-process times pair with them by index
    to_check = [*traced, warm_1, warm_2,
                *rng.sample(window, min(sizes["job_checks"], len(window)))]
    to_check = [job for job in to_check if job["result"] is not None]
    jobs_file = session.tmp / "jobs.json"
    jobs_file.write_text(json.dumps(
        [{"params": job["params"], "result": job["result"]}
         for job in to_check]))
    _, check = session.worker("check-service", "--jobs", str(jobs_file),
                              *(["--trace"] if args.trace else []))

    latency = workloads.latency_summary(loop["scaled_latencies"])
    raw_latency = workloads.latency_summary([job["latency"]
                                             for job in window])
    outcome = {
        "attempted": len(every_job),
        "failed": len(every_job) - len(done) + len(check["mismatches"]),
        "checked": check["checked"],
        "mismatches": check["mismatches"],
        "probes": probe.readings,
        "setup_samples": [setup_1, setup_2],
        "end_to_end": {"images_per_s": loop["images_per_s"],
                       "job_latency_p50_s": latency["p50"],
                       "job_latency_p90_s": latency["tail"],
                       "peak_rss_mb": loop["peak_rss_mb"]},
        "raw": {"images_per_s": loop["raw_images_per_s"],
                "job_latency_p50_s": raw_latency["p50"],
                "job_latency_p90_s": raw_latency["tail"]},
        "spread": {"jobs": latency["n"], "tail_q": latency["tail_q"],
                   "latency_quartiles_s": latency["quartiles"],
                   "window_s": loop["window_s"]},
    }
    if args.trace:
        traced_ok = [job for job in traced if job["state"] == "done"]
        with open(trace_out, encoding="utf-8") as handle:
            values = window_values(**json.load(handle))
        fold_reports(values, [job["result"]["meta"] for job in traced_ok])
        for step in ("submit", "queue_wait", "run"):
            values[f"service.{step}_s"] = sum(j[step] for j in traced_ok)
        values["service.result_s"] = sum(j["fetch"] for j in traced_ok)
        inprocess = check["inprocess_s"][:len(traced_ok)]
        values["service.overhead_s"] = (
            sum(j["latency"] for j in traced_ok) - sum(inprocess))
        values["trace.unattributed_s"] = traced_loop["window_s"] - sum(
            j["latency"] for j in traced_ok)
        values["trace.overhead_pct"] = 100 * (
            1 - traced_loop["images_per_s"] / loop["images_per_s"])
        outcome["per_layer"] = values
    return outcome
