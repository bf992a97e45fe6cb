"""The Fault Injector (Fig. 2b).

"The Fault Injector is deeply integrated with the Larq and Tensorflow
framework ... the original convolution method has been overwritten" — in
this reproduction the integration point is the fault hooks every
:class:`~repro.binary.layers.QuantLayer` exposes.  Attaching a plan wires
closures into the hooks; detaching restores the vanilla forward path
(FLIM with no faults is bit-identical to the vanilla model, the paper's
first verification).

The injector also implements the paper's *notion of time*: mapped layers
execute in model order, so each layer's fault masks start at the
cumulative occurrence count of the layers before it.  Dynamic (period-n)
faults thereby fire every n-th XNOR occurrence across the whole inference,
not just within one layer.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..nn.model import Sequential
from .generator import FaultPlan, mapped_layers
from .mapping import LayerMapping, tile_vector
from . import semantics as sem

__all__ = ["FaultInjector"]


class FaultInjector:
    """Attaches/detaches fault plans to the mapped layers of a model."""

    def __init__(self, continue_time_across_layers: bool = True,
                 force_hooks: bool = False):
        self.continue_time_across_layers = continue_time_across_layers
        #: wire the masking hooks even when every mask bit is clear — used
        #: by the Fig. 4f performance protocol, where FLIM "maps the
        #: respective operations but does not inject actual faults"
        self.force_hooks = force_hooks
        self._attached: list = []
        #: (layer name, rows, cols) -> (layer, LayerMapping) — the mapping
        #: geometry (tile schedule, occurrence templates) is plan-independent,
        #: so a long-lived injector reuses it across every repetition of a
        #: campaign instead of rebuilding it per attach
        self._mapping_cache: dict[tuple[str, int, int], tuple] = {}

    # -- lifecycle ----------------------------------------------------------
    def attach(self, model: Sequential, plan: FaultPlan) -> None:
        """Wire the plan's masks into the model's fault hooks."""
        if self._attached:
            raise RuntimeError("injector already attached; call detach() first")
        unknown = set(plan) - {layer.name for layer in mapped_layers(model)}
        if unknown:
            raise KeyError(f"plan names layers that are not mapped: {sorted(unknown)}")
        time_offset = 0
        for layer in mapped_layers(model):
            masks = plan.get(layer.name)
            if masks is None:
                continue
            mapping = self._mapping_for(layer, masks.rows, masks.cols)
            offset = time_offset if self.continue_time_across_layers else 0
            self._wire_layer(layer, mapping, masks, offset)
            self._attached.append(layer)
            mask_len = masks.rows * masks.cols
            time_offset += -(-layer.outputs_per_image() // mask_len)

    def detach(self) -> None:
        """Restore the vanilla forward path on all touched layers."""
        for layer in self._attached:
            layer.clear_fault_hooks()
        self._attached.clear()

    @contextmanager
    def injecting(self, model: Sequential, plan: FaultPlan):
        """Context manager: attach on entry, always detach on exit."""
        self.attach(model, plan)
        try:
            yield self
        finally:
            self.detach()

    def _mapping_for(self, layer, rows: int, cols: int) -> LayerMapping:
        """Cached :class:`LayerMapping` for (layer, crossbar geometry)."""
        key = (layer.name, rows, cols)
        hit = self._mapping_cache.get(key)
        if hit is not None and hit[0] is layer:
            return hit[1]
        mapping = LayerMapping(layer, rows, cols)
        self._mapping_cache[key] = (layer, mapping)
        return mapping

    # -- wiring ------------------------------------------------------------
    def _wire_layer(self, layer, mapping: LayerMapping, masks, time_offset: int):
        output_ops = []
        kernel_ops = []
        product_ops = []

        if masks.flip_mask.any() or self.force_hooks:
            if masks.flip_semantics == "output":
                selector = mapping.output_flip_selector(
                    masks.flip_vector(), masks.flip_period, time_offset)
                if selector.any() or self.force_hooks:
                    signs = sem.flip_signs(selector)
                    output_ops.append(
                        lambda out, _s=signs: sem.apply_output_flips(out, _s))
            elif masks.flip_semantics == "weight":
                kflip = mapping.weight_plane(masks.flip_mask)
                kernel_ops.append(
                    lambda qk, _m=kflip: sem.apply_weight_stuck(
                        qk, _m, -qk.reshape(-1, qk.shape[-1])))
            elif masks.flip_semantics == "product":
                cells = mapping.product_cells(masks.flip_mask)
                period = masks.flip_period
                product_ops.append(
                    lambda out, cols, qw, _c=cells, _p=period:
                        sem.product_flip(out, cols, qw, mapping, _c, _p))
            else:
                raise ValueError(f"unknown flip semantics {masks.flip_semantics!r}")

        if masks.stuck_mask.any():
            if masks.stuck_semantics == "weight":
                kmask, kvals = mapping.weight_stuck_planes(
                    masks.stuck_mask, masks.stuck_values)
                kernel_ops.append(
                    lambda qk, _m=kmask, _v=kvals: sem.apply_weight_stuck(qk, _m, _v))
            elif masks.stuck_semantics == "output":
                selector = tile_vector(masks.stuck_mask.reshape(-1),
                                       layer.outputs_per_image())
                signs = tile_vector(
                    masks.stuck_values.reshape(-1).astype(np.float32) * 2 - 1,
                    layer.outputs_per_image())
                rail = float(layer.reduction_length())
                output_ops.append(
                    lambda out, _s=selector, _g=signs, _r=rail:
                        sem.apply_output_stuck(out, _s, _g, _r))
            elif masks.stuck_semantics == "product":
                cells = mapping.product_cells(masks.stuck_mask)
                signs = {(r, c): float(masks.stuck_values[r, c]) * 2 - 1
                         for r, c in cells}
                product_ops.append(
                    lambda out, cols, qw, _c=cells, _s=signs:
                        sem.product_stuck(out, cols, qw, mapping, _c, _s))
            else:
                raise ValueError(f"unknown stuck semantics {masks.stuck_semantics!r}")

        if kernel_ops:
            def kernel_hook(qkernel, _layer, _ops=tuple(kernel_ops)):
                for op in _ops:
                    qkernel = op(qkernel)
                return qkernel
            layer.kernel_fault_hook = kernel_hook

        if output_ops:
            def output_hook(out, _layer, _ops=tuple(output_ops)):
                for op in _ops:
                    out = op(out)
                return out
            layer.output_fault_hook = output_hook

        if product_ops:
            def product_hook(out, cols, qw, _layer, _ops=tuple(product_ops)):
                for op in _ops:
                    out = op(out, cols, qw)
                return out
            layer.product_fault_hook = product_hook
