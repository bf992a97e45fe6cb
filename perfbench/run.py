"""The repository benchmark: end-to-end metrics and a traced per-layer run.

    python3 perfbench/run.py --workload fig4-float --seed 1 --seconds 10 \\
        --trace 0

Workloads (each run is a fresh set of processes; only the serial
executor and one closed-loop client are used):

``fig4-float``
    Registry entries ``fig4a``-``fig4e`` through ``repro.api.run`` at
    their default axes, three repeats per point, on 800 synthetic-MNIST
    images, float backend.  One round is 417 grid cells.
``fig4-packed``
    The same rounds, seeds and images with ``backend="packed"``; its
    accuracy-grid digest must equal ``fig4-float``'s for the same seed.
``service-jobs``
    A closed-loop client against ``repro serve --workers 1``: durable
    four-cell ``sweep`` jobs on 200 images, one seed per job.

End-to-end metrics (``--trace 0``):

=====================  ==================================================
``setup_s``            spawn of a cold process until data and weights are
                       ready (fig4: the worker and the checker process;
                       service: spawn of ``repro serve`` until the
                       warm-up job's result is fetched, on two servers);
                       median of the samples, weight cache always warm
``images_per_s``       grid cells completed x images per cell / window
``job_latency_p50_s``  median operation latency: on fig4 a grid cell whose
                       faults reach conv1 (the conv1, combined and
                       dynamic curves) and that asks for faults, timed
                       since the previous event of its run; on
                       service-jobs a job from submit to fetched result
``job_latency_p90_s``  the same at p90, or at the highest rank with ten
                       samples beyond it when there are fewer than 100
``peak_rss_mb``        VmHWM of the fig4 worker at the end of its run /
                       of the first server after set-up, warm-up and 50
                       window jobs
=====================  ==================================================

Timings are reported at the host's reference speed: a fixed probe
(:class:`workloads.HostProbe`, no repro code) runs before each set-up
process, after every Fig. 4 entry and after every half second of
service jobs.  Each block of timed work is scaled by the square root
(``HostProbe.EXPONENT``) of the probe's reference time over the mean
of the two probes around it, set-up by the same root over the run's
median probe.  Raw timings and the probes are in ``perfbench-meta``.

The timed window runs whole rounds (whole jobs) after an untimed
warm-up, until ``--seconds`` is reached.  Outputs are checked against a
reference path in a separate process: sampled grid cells are
re-evaluated with a fresh plan on the float backend, sampled service
results are compared with an in-process ``repro.api.run``.  NaN cells,
mismatches and jobs that do not end ``done`` count as failed.

``--trace 1`` prints every per-layer metric of :data:`tracing.PER_LAYER`
instead, measured by timing wrappers around each layer's public calls
over a fixed number of rounds (jobs), so that counts repeat exactly.
Values are totals over that traced window; data synthesis and weight
loading also include set-up.  ``trace.overhead_pct`` compares the
traced throughput with an untraced window of the same run.

The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it (``perfbench-meta``) records the host,
the within-run spread and the accuracy-grid digest.  The exit code is
0 when every check passed, 1 when a check failed, 2 when the run could
not complete (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys

import workloads
from session import HERE, BenchError, Session
from tracing import per_layer_metrics

ROOT = HERE.parent
WORKLOADS = ("fig4-float", "fig4-packed", "service-jobs")
END_TO_END = {"setup_s": "s", "images_per_s": "img/s",
              "job_latency_p50_s": "s", "job_latency_p90_s": "s",
              "peak_rss_mb": "MB"}


def run_fig4(session: Session, args, sizes: dict) -> dict:
    backend = args.workload.split("-", 1)[1]
    probe = workloads.HostProbe()
    probe.read()
    ready, result = session.worker(
        "fig4", "--backend", backend, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        *(["--trace"] if args.trace else []))
    cells_file = session.tmp / "cells.json"
    cells_file.write_text(json.dumps(result["sample"]))
    probe.read()
    check_ready, check = session.worker("check-fig4", "--cells",
                                        str(cells_file))
    latency = result["latency"]
    return {
        "attempted": result["attempted"],
        "failed": result["nan_cells"] + len(check["mismatches"]),
        "checked": check["checked"],
        "mismatches": check["mismatches"],
        "probes": probe.readings + result["probes"] + check["probes"],
        "setup_samples": [ready, check_ready],
        "end_to_end": {"images_per_s": result["images_per_s"],
                       "job_latency_p50_s": latency["p50"],
                       "job_latency_p90_s": latency["tail"],
                       "peak_rss_mb": result["peak_rss_mb"]},
        "raw": result["raw"],
        "spread": {"round_s": result["round_s"],
                   "round_quartiles_s": (
                       statistics.quantiles(result["round_s"], n=4)
                       if len(result["round_s"]) > 1 else None),
                   "cells": latency["n"], "tail_q": latency["tail_q"],
                   "latency_quartiles_s": latency["quartiles"],
                   "window_s": result["window_s"]},
        "digest": result["digest"],
        "per_layer": result.get("per_layer"),
    }


def end_to_end(outcome: dict, scale: float) -> dict:
    """The end-to-end metrics.  The window's timings come already taken
    to the reference speed, block by block; set-up is scaled here by
    ``scale``."""
    values = {"setup_s": statistics.median(outcome["setup_samples"]) * scale,
              **outcome["end_to_end"]}
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in END_TO_END.items()}


def bypass_violations(workload: str, metrics: dict) -> list[str]:
    """Work silently rerouted to another layer (packed falling back to
    float, a journal appearing or vanishing) fails the traced run."""
    packed = metrics["binary.bitops.packed_matmul_calls"]["value"]
    records = metrics["core.journal.records"]["value"]
    rules = {
        "fig4-float": [(packed == 0, "packed_matmul_calls must be 0"),
                       (records == 0, "journal records must be 0")],
        "fig4-packed": [(packed > 0, "packed_matmul_calls must be > 0"),
                        (records == 0, "journal records must be 0")],
        "service-jobs": [(records > 0, "journal records must be > 0")],
    }
    return [message for ok, message in rules[workload] if not ok]


def cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (tiny dataset, throwaway "
                             "weights)")
    return parser.parse_args(argv)


def measure(args) -> tuple[dict, dict]:
    sizes = workloads.SIZES[args.tiny]
    load_before = os.getloadavg()
    with Session(ROOT, args.tiny) as session:
        _, prepared = session.worker("prepare", timeout=600.0)
        if args.workload == "service-jobs":
            sys.path.insert(0, str(ROOT / "src"))
            import service
            outcome = service.run(session, args, sizes)
        else:
            outcome = run_fig4(session, args, sizes)
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                 **prepared["host"],
                 "loadavg_before": load_before,
                 "loadavg_after": os.getloadavg()},
        "trained_weights": prepared["trained"],
        "raw_setup_samples_s": outcome["setup_samples"],
        "raw_end_to_end": outcome["raw"],
        "host_probe_s": outcome["probes"],
        "spread": outcome["spread"],
        "grid_digest": outcome.get("digest"),
        "checked": outcome["checked"],
        "mismatches": outcome["mismatches"][:5],
    }
    return outcome, meta


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    # a terminated run still cleans up its servers and temporary files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        outcome, meta = measure(args)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    failed = outcome["failed"]
    if args.trace:
        metrics = per_layer_metrics(outcome["per_layer"])
        for message in bypass_violations(args.workload, metrics):
            print(f"perfbench: BYPASS ASSERTION FAILED on {args.workload}: "
                  f"{message}", file=sys.stderr)
            failed += 1
    else:
        metrics = end_to_end(outcome,
                             workloads.HostProbe.scale(outcome["probes"]))
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}")
    if meta["grid_digest"]:
        print(f"{args.workload} seed {args.seed} accuracy-grid digest "
              f"{meta['grid_digest']}")
    print("perfbench-meta " + json.dumps(meta))
    print(json.dumps({"correct": failed == 0,
                      "attempted": int(outcome["attempted"]),
                      "failed": int(failed), "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
