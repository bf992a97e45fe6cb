"""The paper's Fig. 4 (layer resilience + runtime): the Fig. 4a/b rate
axis and the Fig. 4f runtime protocol.

The :mod:`repro.api` catalog runs every sub-figure (``repro run fig4a``
.. ``fig4f``; ``--out`` exports the report) and builds the Fig. 4a–e
campaigns itself.

The paper's protocol: binary LeNet on MNIST, "each layer is mapped onto a
single crossbar while sweeping the injection rate", every experiment
repeated with fresh seeds; the row/column study instantiates a 40×10
crossbar per layer.
"""

from __future__ import annotations

from ..analysis.runtime import (RuntimeSample, extrapolate, measure,
                                measure_interleaved, speedup_table)
from ..core import FaultGenerator, FaultInjector, FaultSpec
from ..data import Dataset
from ..lim import CrossbarConfig, XFaultSimulator
from ..nn.model import Sequential

__all__ = ["DEFAULT_RATES", "run_fig4f"]

#: the paper sweeps 0..30% injection rate in Fig. 4a/4b
DEFAULT_RATES = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30)


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
