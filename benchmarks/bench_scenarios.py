"""Scenario-subsystem benchmark: compiled grids through the engine.

Runs a zoo lifetime scenario (``end-of-life``) through every
executor × backend combination and fails (exit 1) unless all
trajectories are bit-identical to the serial float reference — the
compiled-grid path must inherit the engine's determinism contract
wholesale.  Also measures:

* **compile time** — lowering a scenario must be negligible against a
  single campaign cell;
* **correlation effect** — the ``clustered-variation-attack`` scenario
  against an i.i.d. twin at identical rates: the JSON records the mean
  absolute accuracy gap, the quantity the spatial-correlation literature
  (arXiv:2302.09902) shows is non-zero;
* **journal round-trip** — a journaled scenario run resumed from a
  completed journal must replay bit-identically with zero evaluations;
* **API-layer parity** — the registered ``end-of-life`` entry
  (``repro.api``) must stream exactly one ``CellDone`` event per grid
  cell plus one ``CheckpointDone`` per device age, and reproduce the
  direct ``run_scenario`` trajectory bit-for-bit.

Usage::

    python benchmarks/bench_scenarios.py --quick --json out.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.common import get_mnist, trained_lenet  # noqa: E402
from repro.scenarios import (compile_scenario, get_scenario,  # noqa: E402
                             run_scenario)

RESULTS_DIR = Path(__file__).resolve().parent.parent / "artifacts" / "results"


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def iid_twin(scenario):
    """The same scenario with every clause forced to i.i.d. placement."""
    clauses = tuple(replace(c, spatial="iid", cluster_size=0)
                    for c in scenario.clauses)
    return replace(scenario, name=scenario.name + "-iid", clauses=clauses)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small protocol (2 repeats, 200 images) for "
                             "CI smoke runs")
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--images", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)

    repeats = args.repeats or (2 if args.quick else 5)
    images = args.images or (200 if args.quick else 800)
    n_jobs = args.jobs or max(2, os.cpu_count() or 1)
    seed = 0

    model = trained_lenet()
    _, test = get_mnist()
    test = test.subset(images)

    scenario = get_scenario("end-of-life")
    grid, compile_time = timed(compile_scenario, scenario, model)
    print(f"compile end-of-life: {1e3 * compile_time:.2f} ms "
          f"({len(grid.cells)} cells)")

    timings: dict[str, float] = {"compile_s": compile_time}
    mismatches: list[str] = []
    reference = None
    for executor, backend in [("serial", "float"), ("serial", "packed"),
                              ("shared_memory", "packed")]:
        result, duration = timed(
            run_scenario, scenario, model, test.x, test.y, repeats=repeats,
            seed=seed, executor=executor, n_jobs=n_jobs, backend=backend)
        key = f"{executor}_{backend}"
        timings[key] = duration
        if reference is None:
            reference = result
            identical = True
        else:
            identical = (np.array_equal(result.accuracies,
                                        reference.accuracies)
                         and result.baseline == reference.baseline)
        if not identical:
            mismatches.append(key)
        print(f"scenario {executor:16s}/{backend:6s}: {duration:7.2f} s  "
              f"bit-identical={identical}")
    model.set_execution_backend("float")

    # correlation effect: clustered placement vs an i.i.d. twin at the
    # exact same per-checkpoint rates
    attack = get_scenario("clustered-variation-attack")
    clustered, clustered_time = timed(
        run_scenario, attack, model, test.x, test.y, repeats=repeats,
        seed=seed)
    iid, iid_time = timed(
        run_scenario, iid_twin(attack), model, test.x, test.y,
        repeats=repeats, seed=seed)
    gap = np.abs(clustered.accuracies.mean(axis=2)
                 - iid.accuracies.mean(axis=2))
    timings["clustered_attack"] = clustered_time
    timings["iid_twin"] = iid_time
    print(f"clustered vs iid placement : mean |gap| {100 * gap.mean():.2f}% "
          f"(max {100 * gap.max():.2f}%)")

    # journal round-trip: resume of a completed scenario journal replays
    # without evaluating anything and reproduces the result bit-for-bit
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "scenario.jsonl"
        journaled, journal_time = timed(
            run_scenario, scenario, model, test.x, test.y, repeats=repeats,
            seed=seed, journal=journal)
        resumed, resume_time = timed(
            run_scenario, scenario, model, test.x, test.y, repeats=repeats,
            seed=seed, journal=journal)
        cells = len(grid.cells) * repeats
        if not (np.array_equal(journaled.accuracies, reference.accuracies)
                and np.array_equal(resumed.accuracies, journaled.accuracies)
                and resumed.sweep.meta["resumed_cells"] == cells):
            mismatches.append("journal_resume")
    timings["journaled"] = journal_time
    timings["journal_full_resume"] = resume_time
    print(f"journaled serial/float     : {journal_time:7.2f} s "
          f"(full resume {resume_time:.3f} s)")

    # API-layer parity: the registered entry streams typed events over
    # the same engine and must not change a single number
    from repro import api
    events: list = []
    handle = api.submit(api.RunRequest(
        "end-of-life", params={"repeats": repeats, "images": images}))
    handle.subscribe(events.append)
    api_report, api_time = timed(handle.run)
    timings["api_run"] = api_time
    cell_events = sum(isinstance(e, api.CellDone) for e in events)
    checkpoint_events = sum(isinstance(e, api.CheckpointDone)
                            for e in events)
    expected_cells = len(grid.cells) * repeats
    api_identical = (
        np.array_equal(api_report.raw.accuracies, reference.accuracies)
        and cell_events == expected_cells
        and checkpoint_events == grid.n_checkpoints)
    if not api_identical:
        mismatches.append("api_run")
    print(f"api end-of-life entry      : {api_time:7.2f} s  "
          f"({cell_events} CellDone, {checkpoint_events} CheckpointDone, "
          f"bit-identical={api_identical})")

    report = {
        "protocol": {"scenario": "end-of-life", "cells": len(grid.cells),
                     "repeats": repeats, "images": images, "seed": seed,
                     "model": "binary_lenet", "dataset": "synth_mnist"},
        "machine": {"cpu_count": os.cpu_count(),
                    "platform": platform.platform(),
                    "python": platform.python_version(),
                    "numpy": np.__version__},
        "timings_s": {k: round(v, 4) for k, v in timings.items()},
        "trajectory": {
            "ages": reference.ages,
            "nominal_accuracy": [round(float(a), 6)
                                 for a in reference.trajectory()],
            "baseline": round(float(reference.baseline), 6),
        },
        "correlation_effect": {
            "scenario": "clustered-variation-attack",
            "mean_abs_gap": round(float(gap.mean()), 6),
            "max_abs_gap": round(float(gap.max()), 6),
        },
        "api": {
            "cell_events": cell_events,
            "checkpoint_events": checkpoint_events,
            "bit_identical": api_identical,
        },
        "n_jobs": n_jobs,
        "bit_identical": not mismatches,
        "mismatches": mismatches,
    }
    out = args.json or (RESULTS_DIR / "bench_scenarios.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[json] {out}")
    if mismatches:
        print(f"FAIL: results diverged for {mismatches}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
