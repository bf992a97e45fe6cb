"""Worker processes of the benchmark, one role per invocation.

    python3 perfbench/worker.py prepare
    python3 perfbench/worker.py fig4 --backend float --seed 1 --seconds 10
    python3 perfbench/worker.py check-fig4 --cells cells.json
    python3 perfbench/worker.py check-service --jobs jobs.json

Each role writes JSON lines to stdout: ``{"kind": "ready"}`` once data
and weights are loaded (``run.py`` times set-up up to that line), then
one ``{"kind": "result", ...}``.  ``--tiny`` selects the self-test
sizes (see :mod:`workloads`).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import random
import sys
from time import perf_counter

import workloads
from tracing import Tracer, fold_reports


def emit(kind: str, **payload) -> None:
    print(json.dumps({"kind": kind, **payload}), flush=True)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (VmHWM), in MB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, asked through its own API."""
    with open("/proc/self/maps", encoding="ascii") as maps:
        paths = {line.split()[-1] for line in maps
                 if "openblas" in line.lower() and ".so" in line}
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def host_info() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas_name, "blas_threads": blas_threads()}


# -- prepare -------------------------------------------------------------

def prepare(args) -> None:
    """Make sure the LeNet weight cache exists (train once if not), so
    every timed set-up starts from a warm weight cache; importing the
    server and the catalog also writes their bytecode caches."""
    import repro.service.server  # noqa: F401
    from repro import api
    from repro.experiments import common
    if args.tiny:
        workloads.use_tiny_dataset()
    api.experiment_names()
    trained = not (common.cache_dir() / workloads.LENET_WEIGHTS).exists()
    if trained:
        common.trained_lenet()
    emit("result", trained=trained, host=host_info())


# -- fig4 ---------------------------------------------------------------

def run_round(api, backend: str, seed: int, round_index: int, repeats: int,
              images: int, probe=None) -> dict:
    """One pass over Fig. 4a-e; returns its cells, the latencies of its
    timed cells (time since the previous event of the same run), the
    report metas and the round's seconds.  With a ``probe`` (holding a
    reading taken just before the round) the host is probed after every
    entry, and ``scaled_seconds``/``scaled_latencies`` give the times at
    the probe's reference speed, entry by entry."""
    cells, latencies, metas = [], [], []
    seconds = scaled_seconds = 0.0
    scaled_latencies = []
    params = workloads.fig4_params(seed, round_index, repeats, images)
    for entry in workloads.FIG4_ENTRIES:
        gaps = {}
        last = [perf_counter()]

        def on_event(event) -> None:
            now = perf_counter()
            if isinstance(event, api.CellDone):
                gaps[event.series, event.point, event.repeat] = now - last[0]
            last[0] = now

        start = perf_counter()
        report = api.run(entry, params=params, backend=backend,
                         on_event=on_event)
        elapsed = perf_counter() - start
        factor = probe.bracket() if probe is not None else 1.0
        seconds += elapsed
        scaled_seconds += elapsed * factor
        timed = len(latencies)
        metas.append(report.meta)
        results = report.raw if isinstance(report.raw, dict) \
            else {"dynamic": report.raw}
        for series, result in results.items():
            for point, row in enumerate(result.accuracies.tolist()):
                x = float(result.xs[point])
                for repeat, accuracy in enumerate(row):
                    cells.append({"entry": entry, "series": series,
                                  "seed": params["seed"], "point": point,
                                  "repeat": repeat, "x": x,
                                  "accuracy": accuracy, "round": round_index,
                                  "images": images})
                    if workloads.timed_cell(entry, series, x):
                        latencies.append(gaps[series, point, repeat])
        scaled_latencies += [t * factor for t in latencies[timed:]]
    return {"cells": cells, "latencies": latencies, "metas": metas,
            "seconds": seconds, "scaled_seconds": scaled_seconds,
            "scaled_latencies": scaled_latencies}


def timed_rounds(api, args, sizes, first_round: int, probe, *,
                 seconds=None, count=None) -> dict:
    """Rounds until ``seconds`` of rounds ran (the round that would end
    nearer the deadline than not still runs) or exactly ``count``; the
    host is probed before the first entry and after every entry,
    outside the timed entries."""
    rounds = []
    elapsed = 0.0
    probe.read()
    while True:
        rounds.append(run_round(api, args.backend, args.seed,
                                first_round + len(rounds),
                                sizes["fig4_repeats"], sizes["fig4_images"],
                                probe))
        elapsed += rounds[-1]["seconds"]
        if count is not None:
            if len(rounds) == count:
                break
        elif elapsed + rounds[-1]["seconds"] / 2 >= seconds:
            break
    cells = [cell for r in rounds for cell in r["cells"]]
    scaled = sum(r["scaled_seconds"] for r in rounds)
    return {"rounds": rounds, "cells": cells, "window_s": elapsed,
            "images_per_s": len(cells) * sizes["fig4_images"] / scaled,
            "raw_images_per_s": len(cells) * sizes["fig4_images"] / elapsed}


def sample_cells(cells: list, seed: int, count: int) -> list:
    """A seeded sample spread evenly over the five entries."""
    rng = random.Random(seed)
    chosen = []
    for index, entry in enumerate(workloads.FIG4_ENTRIES):
        pool = [cell for cell in cells if cell["entry"] == entry]
        share = count // len(workloads.FIG4_ENTRIES) + (
            index < count % len(workloads.FIG4_ENTRIES))
        chosen.extend(rng.sample(pool, min(share, len(pool))))
    return chosen


def grid_of(round_result: dict) -> list:
    return [[c["entry"], c["series"], c["point"], c["repeat"], c["accuracy"]]
            for c in round_result["cells"]]


def fig4(args) -> None:
    from repro import api
    sizes = workloads.SIZES[args.tiny]
    if args.tiny:
        workloads.use_tiny_dataset()
    tracer = Tracer().install() if args.trace else None
    workloads.setup_model_and_data()
    if tracer is not None:
        tracer.uninstall()
    emit("ready")
    probe = workloads.HostProbe()
    # untimed warm-up: every entry once at one repeat per point
    warmup = run_round(api, args.backend, args.seed, 0, 1,
                       sizes["fig4_images"])
    window = timed_rounds(api, args, sizes, 1, probe, seconds=args.seconds)
    rounds = window["rounds"]
    raw_latency = workloads.latency_summary(
        [t for r in rounds for t in r["latencies"]])
    result = {
        "window_s": window["window_s"],
        "images_per_s": window["images_per_s"],
        "round_s": [r["seconds"] for r in rounds],
        "latency": workloads.latency_summary(
            [t for r in rounds for t in r["scaled_latencies"]]),
        "raw": {"images_per_s": window["raw_images_per_s"],
                "job_latency_p50_s": raw_latency["p50"],
                "job_latency_p90_s": raw_latency["tail"]},
        "digest": workloads.grid_digest(grid_of(rounds[0])),
    }
    checked = warmup["cells"] + window["cells"]
    if tracer is not None:
        # a fixed number of rounds, so every count repeats exactly
        tracer.install()
        traced = timed_rounds(api, args, sizes, 100, probe,
                              count=sizes["traced_rounds"])
        tracer.uninstall()
        values = dict(tracer.values)
        fold_reports(values, [m for r in traced["rounds"]
                              for m in r["metas"]])
        values["trace.unattributed_s"] = (traced["window_s"]
                                          - values.get("api.run_s", 0.0))
        values["trace.overhead_pct"] = 100 * (
            1 - traced["images_per_s"] / window["images_per_s"])
        result["per_layer"] = values
        checked += traced["cells"]
    result["nan_cells"] = sum(1 for c in checked
                              if c["accuracy"] != c["accuracy"])
    result["attempted"] = len(checked)
    result["sample"] = sample_cells(checked, args.seed, sizes["fig4_checks"])
    result["peak_rss_mb"] = peak_rss_mb()
    result["probes"] = probe.readings
    emit("result", **result)


def check_fig4(args) -> None:
    """Re-evaluate sampled cells through the reference path: a fresh
    plan from ``FaultGenerator.job_seed``, attached with
    ``FaultInjector.injecting`` and evaluated by ``Sequential.evaluate``
    on the float backend.  Values must match exactly."""
    from repro.core import FaultGenerator, FaultInjector
    if args.tiny:
        workloads.use_tiny_dataset()
    model, test = workloads.setup_model_and_data()
    emit("ready")
    probes = [workloads.HostProbe().read()]
    with open(args.cells, encoding="utf-8") as handle:
        cells = json.load(handle)
    mismatches = []
    for cell in cells:
        layers = ([cell["series"]]
                  if cell["series"] in workloads.MAPPED_LAYERS else None)
        generator = FaultGenerator(
            workloads.reference_specs(cell["entry"], cell["x"]),
            rows=workloads.GRID_ROWS, cols=workloads.GRID_COLS,
            seed=FaultGenerator.job_seed(cell["seed"], cell["point"],
                                         cell["repeat"]))
        plan = generator.generate(model, layers=layers)
        subset = test.subset(cell["images"])
        with FaultInjector().injecting(model, plan):
            reference = model.evaluate(subset.x, subset.y)
        if reference != cell["accuracy"]:
            mismatches.append({**cell, "reference": reference})
    emit("result", checked=len(cells), mismatches=mismatches,
         probes=probes)


def check_service(args) -> None:
    """Run each fetched job's request in-process through ``repro.api``
    and compare the canonical results; also time the in-process runs
    (with the tracer installed when the server was traced)."""
    from repro import api
    from repro.service import wire
    if args.tiny:
        workloads.use_tiny_dataset()
    workloads.setup_model_and_data()
    emit("ready")
    with open(args.jobs, encoding="utf-8") as handle:
        jobs = json.load(handle)
    api.run("sweep", params=jobs[0]["params"])  # warm-up, untimed
    tracer = Tracer().install() if args.trace else None
    mismatches, seconds = [], []
    for job in jobs:
        start = perf_counter()
        report = api.run("sweep", params=job["params"])
        seconds.append(perf_counter() - start)
        local = wire.canonical_result(wire.encode_report(report))
        if local != wire.canonical_result(job["result"]):
            mismatches.append(job["params"])
    if tracer is not None:
        tracer.uninstall()
    emit("result", checked=len(jobs), mismatches=mismatches,
         inprocess_s=seconds)


ROLES = {"prepare": prepare, "fig4": fig4, "check-fig4": check_fig4,
         "check-service": check_service}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/worker.py")
    parser.add_argument("role", choices=sorted(ROLES))
    parser.add_argument("--backend", default="float")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--cells")
    parser.add_argument("--jobs")
    args = parser.parse_args(argv)
    ROLES[args.role](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
