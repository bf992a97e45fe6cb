"""Per-layer timing from outside the program.

A :class:`Tracer` replaces public callables of each repro layer with
timing wrappers while it is installed and restores the originals when
it is removed, so no file under ``src/`` carries benchmark code.  Every
``*_s`` value is the total seconds spent inside the wrapped calls while
the tracer was installed; counts are exact.  The totals stay in memory
until the traced process reports them, once, at the end.
"""

from __future__ import annotations

import importlib
import threading
from time import perf_counter

#: LeNet's quantized layers, in execution order
LENET_LAYERS = ("conv0", "conv1", "conv2", "dense0", "dense1")

#: every per-layer metric the traced run prints, with its unit
PER_LAYER = {
    "data.synth_mnist_s": "s",
    "experiments.trained_lenet_s": "s",
    "experiments.trained_lenet_calls": "count",
    "api.run_s": "s",
    "api.runs": "count",
    "api.overhead_s": "s",
    "core.campaign.run_s": "s",
    "core.campaign.runs": "count",
    "core.generator.generate_s": "s",
    "core.generator.plans": "count",
    "core.injector.attach_s": "s",
    "core.engine.evaluate_plan_s": "s",
    "core.engine.cells_evaluated": "count",
    "core.engine.cells_reused": "count",
    "core.engine.baseline_s": "s",
    "core.engine.input_cache_hit_rate": "ratio",
    "core.semantics.output_flips_s": "s",
    "core.semantics.output_stuck_s": "s",
    "core.semantics.hook_calls": "count",
    "core.journal.record_s": "s",
    "core.journal.records": "count",
    **{f"binary.layers.{layer}.{name}": unit
       for layer in LENET_LAYERS
       for name, unit in (("forward_s", "s"), ("calls", "count"),
                          ("faulted_s", "s"), ("clean_s", "s"))},
    "binary.bitops.packed_matmul_s": "s",
    "binary.bitops.packed_matmul_calls": "count",
    "binary.bitops.xnor_word_ops": "count",
    "binary.bitops.bytes_moved": "B",
    "binary.bitops.pack_s": "s",
    "binary.bitops.kernel_packs": "count",
    "nn.ops.im2col_s": "s",
    "nn.ops.im2col_calls": "count",
    "nn.layers.maxpool_s": "s",
    "nn.layers.batchnorm_s": "s",
    "service.submit_s": "s",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "service.result_s": "s",
    "service.overhead_s": "s",
    "obs.phase.plan_s": "s",
    "obs.phase.dispatch_s": "s",
    "obs.phase.evaluate_s": "s",
    "obs.phase.reduce_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_pct": "%",
}

#: (module, owner or None, attribute, seconds metric, count metric):
#: plain timed calls
_TIMED = (
    ("repro.data.synth_mnist", None, "generate_dataset",
     "data.synth_mnist_s", None),
    ("repro.experiments.common", None, "trained_lenet",
     "experiments.trained_lenet_s", "experiments.trained_lenet_calls"),
    ("repro.api.handle", "RunHandle", "run", "api.run_s", "api.runs"),
    ("repro.core.campaign", "FaultCampaign", "run",
     "core.campaign.run_s", "core.campaign.runs"),
    ("repro.core.generator", "FaultGenerator", "generate",
     "core.generator.generate_s", "core.generator.plans"),
    ("repro.core.injector", "FaultInjector", "attach",
     "core.injector.attach_s", None),
    ("repro.core.engine", "CampaignEvaluator", "baseline",
     "core.engine.baseline_s", None),
    ("repro.core.journal", "CampaignJournal", "record",
     "core.journal.record_s", "core.journal.records"),
    ("repro.core.semantics", None, "apply_output_flips",
     "core.semantics.output_flips_s", "core.semantics.hook_calls"),
    ("repro.core.semantics", None, "apply_output_stuck",
     "core.semantics.output_stuck_s", "core.semantics.hook_calls"),
    ("repro.core.semantics", None, "apply_weight_stuck",
     None, "core.semantics.hook_calls"),
    ("repro.core.semantics", None, "product_flip",
     None, "core.semantics.hook_calls"),
    ("repro.core.semantics", None, "product_stuck",
     None, "core.semantics.hook_calls"),
    ("repro.nn.ops", None, "im2col", "nn.ops.im2col_s",
     "nn.ops.im2col_calls"),
    ("repro.nn.layers", "MaxPool2D", "forward", "nn.layers.maxpool_s", None),
    ("repro.nn.layers", "BatchNorm", "forward", "nn.layers.batchnorm_s",
     None),
)


class Tracer:
    """Timing wrappers over the public callables of every layer."""

    def __init__(self):
        self.values: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _add(self, **values: float) -> None:
        with self._lock:
            for name, value in values.items():
                self.values[name] = self.values.get(name, 0.0) + value

    def _patch(self, module: str, owner: str | None, attr: str, make):
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
            original = vars(target)[attr]  # defined here, not inherited
        else:
            original = getattr(target, attr)
        self._patches.append((target, attr, original))
        setattr(target, attr, make(original))

    def _timed(self, seconds: str | None, count: str | None):
        def make(original):
            def timed(*args, **kwargs):
                start = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    record = {count: 1} if count else {}
                    if seconds:
                        record[seconds] = perf_counter() - start
                    self._add(**record)
            return timed
        return make

    def _layer_forward(self, original):
        def forward(layer, *args, **kwargs):
            faulted = (layer.kernel_fault_hook is not None
                       or layer.output_fault_hook is not None
                       or layer.product_fault_hook is not None)
            start = perf_counter()
            try:
                return original(layer, *args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                prefix = f"binary.layers.{layer.name}."
                self._add(**{prefix + "forward_s": elapsed,
                             prefix + "calls": 1,
                             prefix + ("faulted_s" if faulted
                                       else "clean_s"): elapsed})
        return forward

    def _evaluate_plan(self, original):
        from repro.core.engine import plan_has_faults

        def evaluate_plan(evaluator, plan, *args, **kwargs):
            # all-clear plans are answered from the campaign baseline
            kind = ("core.engine.cells_evaluated" if plan_has_faults(plan)
                    else "core.engine.cells_reused")
            start = perf_counter()
            try:
                return original(evaluator, plan, *args, **kwargs)
            finally:
                self._add(**{"core.engine.evaluate_plan_s":
                             perf_counter() - start, kind: 1})
        return evaluate_plan

    def _packed_matmul(self, original):
        def packed_matmul_words(a_words, b_words, length, *args, **kwargs):
            start = perf_counter()
            try:
                return original(a_words, b_words, length, *args, **kwargs)
            finally:
                m, n, words = (a_words.shape[0], b_words.shape[0],
                               a_words.shape[-1])
                self._add(**{
                    "binary.bitops.packed_matmul_s": perf_counter() - start,
                    "binary.bitops.packed_matmul_calls": 1,
                    "binary.bitops.xnor_word_ops": m * n * words,
                    # both packed operands read, the int64 result written
                    "binary.bitops.bytes_moved":
                        a_words.nbytes + b_words.nbytes + m * n * 8})
        return packed_matmul_words

    def _pack(self, kernel: bool):
        """pack_sign and pack_bipolar call pack_bits: time only the
        outermost packing call so nested ones are not counted twice."""
        def make(original):
            def pack(*args, **kwargs):
                depth = getattr(self._local, "pack_depth", 0)
                self._local.pack_depth = depth + 1
                start = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self._local.pack_depth = depth
                    record = {"binary.bitops.kernel_packs": 1} if kernel \
                        else {}
                    if depth == 0:
                        record["binary.bitops.pack_s"] = \
                            perf_counter() - start
                    self._add(**record)
            return pack
        return make

    # -- lifecycle ------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every traced callable (idempotent while installed)."""
        if self._patches:
            return self
        for module, owner, attr, seconds, count in _TIMED:
            self._patch(module, owner, attr, self._timed(seconds, count))
        for cls in ("QuantConv2D", "QuantDense"):
            self._patch("repro.binary.layers", cls, "forward",
                        self._layer_forward)
        self._patch("repro.core.engine", "CampaignEvaluator",
                    "evaluate_plan", self._evaluate_plan)
        self._patch("repro.binary.bitops", None, "packed_matmul_words",
                    self._packed_matmul)
        self._patch("repro.binary.bitops", None, "pack_bits",
                    self._pack(kernel=False))
        self._patch("repro.binary.bitops", None, "pack_sign",
                    self._pack(kernel=False))
        self._patch("repro.binary.bitops", None, "pack_bipolar",
                    self._pack(kernel=True))
        return self

    def uninstall(self) -> None:
        """Restore every original callable."""
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()


def window_values(setup: dict, total: dict) -> dict:
    """Totals of the timed window: ``total`` minus the set-up share,
    except for the set-up layers themselves (data synthesis and weight
    loading), which keep set-up and window together."""
    return {name: value if name.startswith(("data.", "experiments."))
            else value - setup.get(name, 0.0)
            for name, value in total.items()}


def fold_reports(values: dict, reports) -> None:
    """Add the program's own telemetry of finished runs: input-cache
    hit rate from the counters and the phase totals (``plan``,
    ``dispatch``, ``evaluate``, ``reduce``) from each report's
    ``meta["telemetry"]``."""
    hits = misses = 0.0
    for meta in reports:
        telemetry = meta.get("telemetry", {})
        counters = telemetry.get("counters", {})
        hits += counters.get("repro_input_cache_hits_total", 0.0)
        misses += counters.get("repro_input_cache_misses_total", 0.0)
        for phase in ("plan", "dispatch", "evaluate", "reduce"):
            name = f"obs.phase.{phase}_s"
            values[name] = (values.get(name, 0.0)
                            + telemetry.get("phases", {}).get(phase, 0.0))
    values["core.engine.input_cache_hit_rate"] = (
        hits / (hits + misses) if hits + misses else 0.0)


def per_layer_metrics(values: dict) -> dict:
    """Every :data:`PER_LAYER` metric with its unit (0 where the
    workload never reaches that layer)."""
    values = dict(values)
    values["api.overhead_s"] = (values.get("api.run_s", 0.0)
                                - values.get("core.campaign.run_s", 0.0))
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER.items()}
