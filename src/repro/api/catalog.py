"""The built-in experiment catalog: every paper experiment as a registry
entry, and the only way to run one.

Each entry declares its parameters (with their defaults) and quick smoke
configuration, then calls the sweep helpers of :mod:`repro.experiments`
(``fig4.layer_sweeps``, ``fig4.line_sweeps``, ``fig5.model_sweep``,
``fig4.run_fig4f``) or :func:`repro.scenarios.run_scenario` directly,
adding per-series journals and the typed event stream.

Registered entries (``repro list``):

=====================  ==================================================
``sweep``              ad-hoc accuracy-vs-rate sweep on the trained LeNet
``fig4a`` .. ``fig4f`` the paper's Fig. 4 layer/row/column/runtime studies
``fig5a`` .. ``fig5c`` the nine-architecture model-zoo sweeps
                       (``fig5`` is an alias of ``fig5a``)
``table1``/``table2``  the paper's setup / model-characteristics tables
``scenario``           any lifetime/environment story (zoo name or spec
                       file)
six zoo stories        ``fresh-device`` .. ``row-driver-failure``, each a
                       first-class entry
=====================  ==================================================
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from .. import obs as _obs
from .errors import ApiError
from .events import CheckpointDone
from .registry import REGISTRY, Experiment, Param, experiment
from .report import SeriesReport

__all__ = ["register_zoo_scenarios"]

# -- shared parameter declarations ----------------------------------------

_GRID = (Param("rows", "int", 40, "crossbar rows per layer"),
         Param("cols", "int", 10, "crossbar columns per layer"))
_SEED = Param("seed", "int", 0, "base seed (cell seeds derive from it)")
_MNIST_IMAGES = Param("images", "int", 800, "MNIST test images evaluated")
_IMAGENET_IMAGES = Param("images", "int", 400,
                         "synthetic-ImageNet test images evaluated")
_MODELS = Param("models", "strs", None,
                "zoo architectures (default: all nine)")

#: tiny-but-real smoke sizes (satisfies ``--quick`` for CI)
_QUICK_MNIST = dict(images=60, repeats=1, rows=8, cols=4)


def _setup_span(name: str):
    """A span of the ambient run's trace (``data``, ``model``), or a
    no-op outside a run."""
    obs = _obs.current()
    return nullcontext() if obs is None else obs.span(name)


def _lenet_mnist(images: int):
    from ..experiments.common import get_mnist, trained_lenet
    with _setup_span("model"):
        model = trained_lenet()
    with _setup_span("data"):
        _, test = get_mnist()
        return model, test.subset(images)


def _imagenet_test(images: int):
    from ..experiments.common import get_imagenet
    with _setup_span("data"):
        _, test = get_imagenet()
        return test.subset(images)


def _multi_meta(results: dict) -> dict:
    """Aggregate bookkeeping over a ``{label: SweepResult}`` family."""
    first = next(iter(results.values()))
    meta = {"executor": first.meta.get("executor"),
            "backend": first.meta.get("backend"),
            "series": list(results)}
    resumed = [r.meta["resumed_cells"] for r in results.values()
               if "resumed_cells" in r.meta]
    if resumed:
        meta["resumed_cells"] = int(sum(resumed))
    return meta


def _sweep_report(ctx, results: dict, raw=None):
    # run-level baseline is the first series' (one model → the only
    # one; fig5 families keep every model's own baseline on its
    # SeriesReport)
    first = next(iter(results.values()))
    return ctx.report(series=results, raw=raw if raw is not None else results,
                      baseline=float(first.baseline),
                      meta=_multi_meta(results))


# -- the ad-hoc sweep (the old `repro sweep` subcommand) ------------------

@experiment(
    "sweep",
    description="Accuracy-vs-rate sweep on the trained binary LeNet "
                "(the old `repro sweep`).",
    params=(Param("fault", "str", "bitflip", "fault model",
                  choices=("bitflip", "stuck_at")),
            Param("rates", "floats", [0.0, 0.1, 0.2, 0.3],
                  "injection rates swept"),
            Param("repeats", "int", 5, "repetitions per rate"),
            Param("images", "int", 300, "MNIST test images evaluated"),
            *_GRID, _SEED),
    supports_journal=True,
    quick=dict(rates=[0.0, 0.2], **_QUICK_MNIST))
def _sweep(ctx, fault, rates, repeats, images, rows, cols, seed):
    from ..core import FaultCampaign, FaultSpec
    model, test = _lenet_mnist(images)
    spec_factory = (FaultSpec.bitflip if fault == "bitflip"
                    else FaultSpec.stuck_at)
    with FaultCampaign(model, test.x, test.y, rows=rows, cols=cols,
                       **ctx.engine_kwargs()) as campaign:
        result = campaign.run(spec_factory, xs=rates, repeats=repeats,
                              seed=seed, label=fault,
                              journal=ctx.journal_for(),
                              progress=ctx.progress_for(fault))
    return ctx.report(series={fault: result}, raw=result,
                      baseline=float(result.baseline),
                      meta=dict(result.meta))


# -- Fig. 4: LeNet layer resilience ---------------------------------------

_FIG4_RATE_PARAMS = (Param("rates", "floats", None, "injection rates "
                           "(default: the paper's 0..30% axis)"),
                     Param("repeats", "int", 10, "repetitions per point"),
                     _MNIST_IMAGES, *_GRID, _SEED)
_FIG4_QUICK = dict(rates=[0.0, 0.2], **_QUICK_MNIST)


def _fig4_layer_family(ctx, spec_factory, rates, repeats, images, rows,
                       cols, seed):
    from ..experiments import fig4
    model, test = _lenet_mnist(images)
    results = fig4.layer_sweeps(
        model, test, spec_factory,
        tuple(rates if rates is not None else fig4.DEFAULT_RATES),
        repeats, rows, cols, seed=seed, progress=ctx.series_progress,
        journal_for=ctx.journal_for, **ctx.engine_kwargs())
    return _sweep_report(ctx, results)


@experiment("fig4a", params=_FIG4_RATE_PARAMS, supports_journal=True,
            quick=_FIG4_QUICK,
            description="Fig. 4a: bit-flip injection rate vs accuracy, "
                        "per LeNet layer plus combined.")
def _fig4a(ctx, rates, repeats, images, rows, cols, seed):
    from ..core import FaultSpec
    return _fig4_layer_family(ctx, FaultSpec.bitflip, rates, repeats,
                              images, rows, cols, seed)


@experiment("fig4b", params=_FIG4_RATE_PARAMS, supports_journal=True,
            quick=_FIG4_QUICK,
            description="Fig. 4b: stuck-at injection rate vs accuracy, "
                        "per LeNet layer plus combined.")
def _fig4b(ctx, rates, repeats, images, rows, cols, seed):
    from ..core import FaultSpec
    return _fig4_layer_family(ctx, FaultSpec.stuck_at, rates, repeats,
                              images, rows, cols, seed)


@experiment(
    "fig4c",
    description="Fig. 4c: dynamic faults — sensitization period vs "
                "accuracy on LeNet.",
    params=(Param("periods", "ints", [0, 1, 2, 3, 4],
                  "sensitization periods swept"),
            Param("rate", "float", 0.10, "bit-flip rate behind the axis"),
            Param("repeats", "int", 10, "repetitions per period"),
            _MNIST_IMAGES, *_GRID, _SEED),
    supports_journal=True,
    quick=dict(periods=[0, 4], **_QUICK_MNIST))
def _fig4c(ctx, periods, rate, repeats, images, rows, cols, seed):
    # ``period`` counts the XNOR operations needed to sensitize the
    # fault; 0/1 fire on every operation (the static case)
    from ..core import FaultCampaign, FaultSpec
    model, test = _lenet_mnist(images)
    with FaultCampaign(model, test.x, test.y, rows=rows, cols=cols,
                       **ctx.engine_kwargs()) as campaign:
        result = campaign.run(
            lambda n: FaultSpec.bitflip(rate, period=int(n)),
            xs=list(periods), repeats=repeats, seed=seed, label="dynamic",
            journal=ctx.journal_for(), progress=ctx.progress_for("dynamic"))
    return ctx.report(series={"dynamic": result}, raw=result,
                      baseline=float(result.baseline),
                      meta=dict(result.meta))


_FIG4_LINE_PARAMS = (Param("counts", "ints", None,
                           "faulty-line counts (default: the paper axis)"),
                     Param("repeats", "int", 10, "repetitions per count"),
                     _MNIST_IMAGES, *_GRID, _SEED)
_FIG4_LINE_QUICK = dict(counts=[0, 2], **_QUICK_MNIST)


def _fig4_line_family(ctx, spec_factory, counts, repeats, images, rows,
                      cols, seed, default_counts):
    from ..experiments import fig4
    model, test = _lenet_mnist(images)
    results = fig4.line_sweeps(
        model, test, spec_factory,
        counts if counts is not None else default_counts, repeats, rows,
        cols, seed=seed, progress=ctx.series_progress,
        journal_for=ctx.journal_for, **ctx.engine_kwargs())
    return _sweep_report(ctx, results)


@experiment("fig4d", params=_FIG4_LINE_PARAMS, supports_journal=True,
            quick=_FIG4_LINE_QUICK,
            description="Fig. 4d: faulty crossbar columns vs accuracy, "
                        "per LeNet layer.")
def _fig4d(ctx, counts, repeats, images, rows, cols, seed):
    from ..core import FaultSpec
    return _fig4_line_family(ctx, lambda c: FaultSpec.faulty_columns(int(c)),
                             counts, repeats, images, rows, cols, seed,
                             (0, 1, 2, 3, 4))


@experiment("fig4e", params=_FIG4_LINE_PARAMS, supports_journal=True,
            quick=_FIG4_LINE_QUICK,
            description="Fig. 4e: faulty crossbar rows vs accuracy, "
                        "per LeNet layer.")
def _fig4e(ctx, counts, repeats, images, rows, cols, seed):
    from ..core import FaultSpec
    return _fig4_line_family(ctx, lambda r: FaultSpec.faulty_rows(int(r)),
                             counts, repeats, images, rows, cols, seed,
                             (0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20))


def _tiny_runtime_workload(seed: int):
    """A miniature BNN + dataset for quick runtime smoke measurements
    (the gate-serial device baseline on LeNet takes minutes/image)."""
    from .. import nn
    from ..binary import QuantDense
    from ..data import Dataset
    rng = np.random.default_rng(1234 + seed)
    model = nn.Sequential([
        QuantDense(6, input_quantizer="ste_sign",
                   kernel_quantizer="ste_sign"),
        nn.BatchNorm(),
        nn.Sign(),
        QuantDense(4, input_quantizer="ste_sign",
                   kernel_quantizer="ste_sign"),
    ]).build((12,), seed=seed)
    x = rng.standard_normal((40, 12)).astype(np.float32)
    y = rng.integers(0, 4, 40)
    return model, Dataset(x, y)


@experiment(
    "fig4f",
    description="Fig. 4f: runtime of X-Fault vs FLIM vs vanilla "
                "inference (speedup table).",
    params=(Param("model", "str", "lenet", "workload under test",
                  choices=("lenet", "tiny")),
            Param("images", "int", 800, "test images per pass "
                  "(lenet workload)"),
            Param("passes", "int", 3, "full test-set passes measured"),
            Param("xfault_images", "int", 2,
                  "images for the device-tile baseline (extrapolated)"),
            Param("serial_images", "int", 1,
                  "images for the gate-serial X-Fault baseline"),
            *_GRID,
            Param("gate", "str", "imply", "LIM gate family",
                  choices=("imply", "magic")),
            _SEED),
    quick=dict(model="tiny", passes=1, xfault_images=2, serial_images=1,
               rows=6, cols=3))
def _fig4f(ctx, model, images, passes, xfault_images, serial_images,
           rows, cols, gate, seed):
    from ..experiments import fig4
    if ctx.request.executor != "serial":
        ctx.warn("fig4f is a wall-clock runtime measurement; it always "
                 "runs serially and ignores executor/backend options")
    if model == "tiny":
        workload, test = _tiny_runtime_workload(seed)
    else:
        workload, test = _lenet_mnist(images)
    outcome = fig4.run_fig4f(
        workload, test, passes=passes, xfault_images=xfault_images,
        serial_images=serial_images, rows=rows, cols=cols,
        gate_family=gate, seed=seed)
    table = [[platform, float(seconds), float(speedup)]
             for platform, seconds, speedup in outcome["table"]]
    return ctx.report(
        tables={"runtime": {"columns": ["platform", "seconds", "speedup"],
                            "rows": table,
                            "images": int(outcome["images"])}},
        raw=outcome, meta={"workload": model})


# -- Fig. 5: model-zoo resilience -----------------------------------------

def _fig5_family(ctx, spec_factory, xs, models, repeats, images, rows,
                 cols, seed):
    from ..experiments import fig5
    results = fig5.model_sweep(
        spec_factory, list(xs), models=list(models) if models else None,
        repeats=repeats, rows=rows, cols=cols, seed=seed,
        test=_imagenet_test(images), progress=ctx.series_progress,
        journal_for=ctx.journal_for, **ctx.engine_kwargs())
    return _sweep_report(ctx, results)


_FIG5_QUICK = dict(models=["binary_alexnet"], repeats=1, images=40)


@experiment(
    "fig5a", aliases=("fig5",), supports_journal=True,
    description="Fig. 5a: bit-flip rate vs accuracy across the nine "
                "zoo architectures.",
    params=(_MODELS,
            Param("rates", "floats", None,
                  "bit-flip rates (default: the paper's 0..20% axis)"),
            Param("repeats", "int", 5, "repetitions per point"),
            _IMAGENET_IMAGES, *_GRID, _SEED),
    quick=dict(rates=[0.0, 0.2], **_FIG5_QUICK))
def _fig5a(ctx, models, rates, repeats, images, rows, cols, seed):
    from ..core import FaultSpec
    from ..experiments import fig5
    return _fig5_family(ctx, FaultSpec.bitflip,
                        rates if rates is not None else fig5.BITFLIP_RATES,
                        models, repeats, images, rows, cols, seed)


@experiment(
    "fig5b", supports_journal=True,
    description="Fig. 5b: stuck-at rate vs accuracy across the nine "
                "zoo architectures.",
    params=(_MODELS,
            Param("rates", "floats", None,
                  "stuck-at rates (default: the paper's 0..2% axis)"),
            Param("repeats", "int", 5, "repetitions per point"),
            _IMAGENET_IMAGES, *_GRID, _SEED),
    quick=dict(rates=[0.0, 0.02], **_FIG5_QUICK))
def _fig5b(ctx, models, rates, repeats, images, rows, cols, seed):
    from ..core import FaultSpec
    from ..experiments import fig5
    return _fig5_family(ctx, FaultSpec.stuck_at,
                        rates if rates is not None else fig5.STUCKAT_RATES,
                        models, repeats, images, rows, cols, seed)


@experiment(
    "fig5c", supports_journal=True,
    description="Fig. 5c: dynamic-fault sensitization period vs accuracy "
                "across the nine zoo architectures.",
    params=(_MODELS,
            Param("periods", "ints", None,
                  "sensitization periods (default: 0..5)"),
            Param("rate", "float", 0.10, "bit-flip rate behind the axis"),
            Param("repeats", "int", 5, "repetitions per point"),
            _IMAGENET_IMAGES, *_GRID, _SEED),
    quick=dict(periods=[0, 4], **_FIG5_QUICK))
def _fig5c(ctx, models, periods, rate, repeats, images, rows, cols, seed):
    from ..core import FaultSpec
    from ..experiments import fig5
    return _fig5_family(ctx, lambda n: FaultSpec.bitflip(rate, period=int(n)),
                        periods if periods is not None
                        else fig5.DYNAMIC_PERIODS,
                        models, repeats, images, rows, cols, seed)


# -- tables ---------------------------------------------------------------

@experiment("table1",
            description="Table I: the adopted experimental setup of this "
                        "reproduction host.")
def _table1(ctx):
    from ..experiments.tables import table1_setup
    rows = table1_setup()
    return ctx.report(tables={"setup": {"columns": ["key", "value"],
                                        "rows": [[k, v] for k, v in rows]}},
                      raw=rows)


@experiment(
    "table2",
    description="Table II: per-model Top-1, size, params, MACs, "
                "binarized % next to the paper's reference values.",
    params=(_MODELS,
            Param("accuracy", "bool", True,
                  "measure Top-1 (slow) instead of reporting NaN")),
    quick=dict(models=["binary_alexnet"], accuracy=False))
def _table2(ctx, models, accuracy):
    from ..experiments.tables import table2_model_stats
    rows = table2_model_stats(models=list(models) if models else None,
                              measure_accuracy=accuracy)
    columns = list(rows[0]) if rows else []
    return ctx.report(
        tables={"models": {"columns": columns,
                           "rows": [[row[c] for c in columns]
                                    for row in rows]}},
        raw=rows)


# -- scenarios ------------------------------------------------------------

_SCENARIO_PARAMS = (Param("repeats", "int", 3, "repetitions per grid cell"),
                    Param("images", "int", 300,
                          "MNIST test images evaluated"),
                    *_GRID, _SEED)
_SCENARIO_QUICK = dict(repeats=1, images=60, rows=8, cols=4)


def _scenario_progress(ctx, grid, repeats, name):
    """CellDone per cell + CheckpointDone when a device-age checkpoint's
    episodes × repetitions all completed (resumed cells never re-emit,
    so a partially journaled checkpoint completes without its event)."""
    remaining = [grid.n_episodes * repeats] * grid.n_checkpoints
    emit_cell = ctx.progress_for(name)

    def progress(done, total, cell):
        emit_cell(done, total, cell)
        checkpoint = grid.cells[cell[0]].checkpoint
        remaining[checkpoint] -= 1
        if remaining[checkpoint] == 0:
            ctx.emit(CheckpointDone(index=checkpoint,
                                    total=grid.n_checkpoints,
                                    age=grid.ages[checkpoint]))
    return progress


def _scenario_series(result) -> list[SeriesReport]:
    ages = [float(age) for age in result.ages]
    series = [SeriesReport(label=episode, xs=ages,
                           mean=[float(v) for v in
                                 result.trajectory(episode)],
                           std=[float(v) for v in result.std(episode)])
              for episode in result.episodes]
    if len(result.episodes) > 1:
        series.append(SeriesReport(
            label="blended", xs=ages,
            mean=[float(v) for v in result.blended_trajectory()],
            std=[0.0] * len(ages)))
    return series


def _run_scenario_entry(ctx, scenario, repeats, images, rows, cols, seed):
    from ..scenarios import compile_scenario, run_scenario
    model, test = _lenet_mnist(images)
    grid = compile_scenario(scenario, model, rows=rows, cols=cols)
    result = run_scenario(
        scenario, model, test.x, test.y, repeats=repeats, seed=seed,
        rows=rows, cols=cols, journal=ctx.journal_for(),
        progress=_scenario_progress(ctx, grid, repeats, scenario.name),
        grid=grid, **ctx.engine_kwargs())
    return ctx.report(series=_scenario_series(result), raw=result,
                      baseline=float(result.baseline),
                      meta=dict(result.meta))


@experiment(
    "scenario",
    description="Any declarative lifetime/environment story: a zoo name "
                "(name=...) or a YAML/JSON spec file (spec=...).",
    params=(Param("name", "str", None, "zoo scenario name "
                  "(see: repro scenarios list)"),
            Param("spec", "str", None, "YAML/JSON scenario spec file"),
            *_SCENARIO_PARAMS),
    supports_journal=True,
    quick=dict(name="fresh-device", **_SCENARIO_QUICK))
def _scenario(ctx, name, spec, repeats, images, rows, cols, seed):
    from ..scenarios import Scenario, resolve_scenario
    if (name is None) == (spec is None):
        raise ApiError("scenario: pass exactly one of name=<zoo name> "
                       "or spec=<file> (see: repro scenarios list)")
    scenario = (Scenario.from_file(spec) if spec
                else resolve_scenario(name))
    return _run_scenario_entry(ctx, scenario, repeats, images, rows, cols,
                               seed)


def register_zoo_scenarios() -> None:
    """Register every zoo story as a first-class experiment entry
    (``repro run end-of-life``)."""
    from ..scenarios import get_scenario, scenario_names
    for name in scenario_names():
        story = get_scenario(name)

        def runner(ctx, repeats, images, rows, cols, seed, _name=name):
            from ..scenarios import get_scenario as resolve
            return _run_scenario_entry(ctx, resolve(_name), repeats,
                                       images, rows, cols, seed)

        REGISTRY.register(Experiment(
            name=name, func=runner, params=_SCENARIO_PARAMS,
            description=f"Scenario: {story.description}",
            supports_journal=True, quick=dict(_SCENARIO_QUICK)))


register_zoo_scenarios()
