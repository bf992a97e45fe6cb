"""Experiment runners for the paper's Fig. 4 (layer resilience + runtime).

The :mod:`repro.api` catalog runs every sub-figure through these
helpers (``repro run fig4a`` .. ``fig4f``; ``--out`` exports the report).

The paper's protocol: binary LeNet on MNIST, "each layer is mapped onto a
single crossbar while sweeping the injection rate", every experiment
repeated with fresh seeds; the row/column study instantiates a 40×10
crossbar per layer.
"""

from __future__ import annotations

from ..analysis.runtime import (RuntimeSample, extrapolate, measure,
                                measure_interleaved, speedup_table)
from ..core import FaultCampaign, FaultInjector, FaultGenerator, FaultSpec, SweepResult
from ..data import Dataset
from ..lim import CrossbarConfig, XFaultSimulator
from ..models.lenet import LENET_MAPPED_LAYERS
from ..nn.model import Sequential

__all__ = ["DEFAULT_RATES", "layer_sweeps", "line_sweeps", "run_fig4f"]

#: the paper sweeps 0..30% injection rate in Fig. 4a/4b
DEFAULT_RATES = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30)


def layer_sweeps(model: Sequential, test: Dataset, spec_factory,
                 xs, repeats: int, rows: int = 40, cols: int = 10,
                 layer_names=LENET_MAPPED_LAYERS, seed: int = 0,
                 progress_for=None, journal_for=None,
                 **engine) -> dict[str, SweepResult]:
    """Per-layer sweeps plus the 'combined' all-layer sweep (Fig. 4a/b).

    ``engine`` holds :class:`~repro.core.FaultCampaign`'s options
    (``executor``, ``n_jobs``, ``backend``, ``cache_bytes``, ``policy``,
    ``on_event``, ...) and passes straight through, so every Fig. 4
    scenario can run on the pool executor and the packed backend — all
    bit-identical to serial/float.  ``progress_for(series)`` and
    ``journal_for(series)`` give each series curve its own
    ``progress(done, total, cell)`` callback and journal path (each
    series is its own grid, so each needs its own fingerprinted
    journal); these are the streaming hooks of the :mod:`repro.api`
    layer.
    """
    results: dict[str, SweepResult] = {}
    with FaultCampaign(model, test.x, test.y, rows=rows, cols=cols,
                       **engine) as campaign:
        for name in (*layer_names, "combined"):
            results[name] = campaign.run(
                spec_factory, xs, repeats=repeats, seed=seed,
                layers=None if name == "combined" else [name], label=name,
                journal=journal_for(name) if journal_for else None,
                progress=progress_for(name) if progress_for else None)
    return results


def line_sweeps(model: Sequential, test: Dataset, spec_factory, counts,
                repeats: int, rows: int = 40, cols: int = 10,
                layer_names=LENET_MAPPED_LAYERS, seed: int = 0,
                progress_for=None, journal_for=None,
                **engine) -> dict[str, SweepResult]:
    """Per-layer faulty-line sweeps (Fig. 4d columns / Fig. 4e rows).

    Same hooks and engine options as :func:`layer_sweeps`, without the
    'combined' series: ``spec_factory(count)`` marks that many faulty
    lines on one layer's crossbar at a time.
    """
    results = {}
    with FaultCampaign(model, test.x, test.y, rows=rows, cols=cols,
                       **engine) as campaign:
        for name in layer_names:
            results[name] = campaign.run(
                spec_factory, xs=list(counts), repeats=repeats, seed=seed,
                layers=[name], label=name,
                journal=journal_for(name) if journal_for else None,
                progress=progress_for(name) if progress_for else None)
    return results


def run_fig4f(model: Sequential, test: Dataset, passes: int = 3,
              xfault_images: int = 2, serial_images: int = 1,
              rows: int = 40, cols: int = 10,
              gate_family: str = "imply", seed: int = 0
              ) -> dict[str, object]:
    """Fig. 4f: runtime of X-Fault vs FLIM vs vanilla on the test set.

    Protocol mirrors the paper: vanilla and FLIM run ``passes`` full
    passes over the test set (the paper uses fifty), warm and in turn,
    and report the median of
    :data:`~repro.analysis.runtime.INTERLEAVED_TRIALS` runs each; the
    device-level baselines are timed once on a handful of images and
    extrapolated to the full workload ("we estimate the total run time
    of X-Fault based on five images").  Two device baselines are
    reported:

    * ``X-Fault`` — gate-serial evaluation, X-Fault's per-memristor cost
      model (the paper's comparison point);
    * ``device-tile`` — our tile-vectorized device simulator, a faster
      but still device-granular execution.

    During each FLIM run the injection mechanism attaches, maps the
    operations but injects no actual faults, and detaches.
    """
    images = len(test.x) * passes

    def run_vanilla():
        for _ in range(passes):
            model.predict(test.x)

    generator = FaultGenerator(FaultSpec.bitflip(0.0), rows=rows, cols=cols,
                               seed=seed)
    plan = generator.generate(model)
    injector = FaultInjector(force_hooks=True)

    def run_flim():
        with injector.injecting(model, plan):
            run_vanilla()

    vanilla, flim = measure_interleaved(
        {"vanilla": run_vanilla, "FLIM": run_flim}, images)

    config = CrossbarConfig(rows=rows, cols=cols, gate_family=gate_family,
                            seed=seed)
    tile_sim = XFaultSimulator(model, config)
    x_tile = test.x[:xfault_images]
    tile_sample = measure("device-tile", lambda: tile_sim.run(x_tile),
                          xfault_images)
    device_tile = extrapolate(tile_sample, images)

    serial_sim = XFaultSimulator(model, config, gate_serial=True)
    x_serial = test.x[:serial_images]
    serial_sample = measure("X-Fault", lambda: serial_sim.run(x_serial),
                            serial_images)
    xfault = extrapolate(serial_sample, images)

    samples: list[RuntimeSample] = [xfault, device_tile, flim, vanilla]
    return {
        "samples": samples,
        "table": speedup_table(samples, reference="X-Fault"),
        "images": images,
    }
