"""The Fault Generator (Fig. 2a).

"The Fault Generator constructs a set of fault vectors encoding the fault
type, location, and injection rate.  This tool is implemented in vanilla
Python and hence, independent of the fault injection mechanism." — §III.

Mask generation is an offline process: the expensive distribution and
mapping of faults happens once per plan and is reused over the whole
simulation (and, through :mod:`repro.core.vectors`, over a myriad of
experiments).
"""

from __future__ import annotations

import numpy as np

from ..binary.layers import QuantLayer
from ..nn.model import Sequential
from .faults import FaultSpec
from .mapping import LayerMapping
from .masks import LayerMasks, assemble_layer_masks

__all__ = ["FaultPlan", "FaultGenerator", "check_crossbar", "mapped_layers"]

#: A fault plan assigns each mapped layer (by name) its crossbar masks.
FaultPlan = dict[str, LayerMasks]


def check_crossbar(rows: int, cols: int) -> None:
    """Refuse a crossbar without rows or columns (``ValueError``)."""
    if rows < 1 or cols < 1:
        raise ValueError(f"a crossbar needs rows >= 1 and cols >= 1, "
                         f"got {rows}x{cols}")


def mapped_layers(model: Sequential,
                  names: list[str] | None = None) -> list[QuantLayer]:
    """The LIM-mapped quantized layers of a model, optionally filtered.

    Only fully binarized conv/dense layers are mapped (the paper follows
    X-Fault's conservative approach: non-binary ops run in CMOS).
    """
    layers = [layer for layer in model.layers_of_type(QuantLayer) if layer.is_mapped]
    if names is None:
        return layers
    by_name = {layer.name: layer for layer in layers}
    missing = [name for name in names if name not in by_name]
    if missing:
        raise KeyError(f"not mapped layers of this model: {missing}; "
                       f"mapped: {sorted(by_name)}")
    return [by_name[name] for name in names]


class FaultGenerator:
    """Builds fault plans: distribution + mapping + vector extraction.

    Parameters
    ----------
    rows, cols:
        Crossbar geometry, each at least 1; every mapped layer gets its
        own crossbar with these dimensions ("each layer is mapped onto a
        single crossbar").
    specs:
        Fault directives, combined per layer (e.g. bit-flips + stuck-at).
    seed:
        Seed of the generator's private RNG.  The paper re-runs each
        experiment a hundred times, reinitializing the random generator
        with a new seed value — create one generator per repetition.
    """

    def __init__(self, specs: list[FaultSpec] | FaultSpec,
                 rows: int = 40, cols: int = 10, seed: int = 0):
        check_crossbar(rows, cols)
        if isinstance(specs, FaultSpec):
            specs = [specs]
        self.specs = list(specs)
        self.rows = rows
        self.cols = cols
        self.rng = np.random.default_rng(seed)

    @staticmethod
    def job_seed(base_seed: int, point_index: int, repeat_index: int) -> int:
        """Deterministic per-(sweep point, repetition) generator seed.

        The campaign protocol re-seeds every repetition ("reinitialized the
        random generator with a new seed value", §IV); spreading the grid
        over two primes keeps every job's seed distinct while remaining a
        pure function of the grid coordinates — serial, parallel and
        resumed runs all draw identical fault plans.
        """
        return base_seed + 7919 * repeat_index + 104729 * point_index

    def generate(self, model: Sequential,
                 layers: list[str] | None = None) -> FaultPlan:
        """Draw fresh masks for every (selected) mapped layer.

        Specs carrying their own ``layers`` restriction (composite plans
        — e.g. a compiled scenario whose clauses target different layer
        subsets) only contribute to the masks of the layers they name;
        specs with ``layers=None`` apply everywhere, as before.  Mask
        draws happen layer by layer in model order from this generator's
        single RNG, so a composite plan is as deterministic under its
        seed as a uniform one.
        """
        plan: FaultPlan = {}
        for layer in mapped_layers(model, layers):
            specs = [spec for spec in self.specs
                     if spec.layers is None or layer.name in spec.layers]
            plan[layer.name] = assemble_layer_masks(
                self.rows, self.cols, specs, self.rng)
        return plan

    def mapping_for(self, layer: QuantLayer) -> LayerMapping:
        return LayerMapping(layer, self.rows, self.cols)

    def report(self, model: Sequential,
               layers: list[str] | None = None) -> list[dict[str, object]]:
        """Per-layer mapping report: parallel ops, totals, reuse factors."""
        return [self.mapping_for(layer).describe()
                for layer in mapped_layers(model, layers)]

    def extract_vectors(self, plan: FaultPlan, path) -> None:
        """Serialize the plan as an annotated binary fault-vector file.

        The file is independent of the dataset and reusable across
        experiments (§III, "Fault vector extraction").
        """
        from .vectors import save_fault_vectors
        save_fault_vectors(path, plan)
