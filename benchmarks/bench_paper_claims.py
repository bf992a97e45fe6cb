"""The paper's claims that need paper-scale workloads, over ``repro.api``.

Tier-1 (``tests/test_experiments.py``) checks the Fig. 4 shapes on the
trained LeNet in a fraction of a second.  The claims here need either
LeNet-scale device-level simulation (Fig. 4f) or all nine trained zoo
models (Fig. 5, Table II; the first run trains the uncached ones, ~15
minutes), so they run on demand:

    PYTHONPATH=src python -m pytest benchmarks/bench_paper_claims.py -q

To export a figure's data, run its registry entry instead:
``repro run fig5a --param repeats=2 --out fig5a.json``.
"""

import numpy as np

from repro import api

#: the zoo sweeps' reduced CPU scale (the paper repeats 100 times)
ZOO = dict(repeats=2, images=100)


def test_fig4f_flim_orders_of_magnitude_faster_than_xfault():
    """Paper: FLIM 29375x faster than X-Fault on CPU, and close to
    vanilla inference (fifty passes there, two here; X-Fault is
    extrapolated from two images as the paper does from five)."""
    report = api.run("fig4f", params=dict(images=400, passes=2,
                                          xfault_images=2))
    speedup = {platform: value for platform, _, value
               in report.tables["runtime"]["rows"]}
    assert speedup["FLIM"] > 1000.0
    assert speedup["FLIM"] > speedup["device-tile"] > speedup["X-Fault"]
    assert speedup["vanilla"] >= speedup["FLIM"] * 0.5


def test_fig5a_every_architecture_degrades_under_bitflips():
    rates = [0.0, 0.05, 0.10, 0.20]
    report = api.run("fig5a", params=dict(rates=rates, **ZOO))
    assert len(report.raw) == 9
    for name, result in report.raw.items():
        assert result.accuracies.shape == (len(rates), ZOO["repeats"]), name
        assert result.mean()[-1] <= result.mean()[0], name


def test_fig5b_every_architecture_degrades_within_two_percent_stuck_at():
    """Fig. 5b's axis is 10x tighter than 5a's: permanent faults are
    amplified by cell reuse, so 2% stuck-at already costs accuracy."""
    report = api.run("fig5b", params=dict(rates=[0.0, 0.005, 0.01, 0.02],
                                          **ZOO))
    assert len(report.raw) == 9
    for name, result in report.raw.items():
        assert result.mean()[-1] <= result.mean()[0], name


def test_fig5c_architectures_recover_with_sensitization_period():
    """Robust to per-model sampling noise at two repeats: the mean over
    architectures must recover, and so must a clear majority of them."""
    report = api.run("fig5c", params=dict(periods=[0, 2, 4], rate=0.15,
                                          **ZOO))
    results = report.raw.values()
    static = np.mean([result.mean()[0] for result in results])
    relaxed = np.mean([result.mean()[-1] for result in results])
    assert relaxed > static
    recovering = sum(result.mean()[-1] >= result.mean()[0] - 0.02
                     for result in results)
    assert recovering >= 7, f"only {recovering}/9 models recover"


def test_table2_every_model_learned_the_task():
    report = api.run("table2")
    table = report.tables["models"]
    rows = [dict(zip(table["columns"], row)) for row in table["rows"]]
    assert len(rows) == 9
    for row in rows:
        # well above the 10% chance level of the synthetic task
        assert row["top1_pct"] > 30.0, row["model"]
