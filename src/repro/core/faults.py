"""Fault model vocabulary of the FLIM platform.

The paper injects faults related to time-dependent deviations:

* **bit-flips** (static and dynamic) — transient faults caused by
  environmental variations; a dynamic fault is sensitized every n-th XNOR
  operation (the DRAM-style model of the paper's [24]);
* **stuck-at faults** — permanent faults from temporal variation /
  end-of-life degradation;
* **faulty rows/columns** — structural crossbar faults, encoded (as in
  the paper) as bit-flip masks with entire rows or columns set.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum

__all__ = ["FaultType", "StuckPolarity", "FaultSpec", "Semantics",
           "SpatialMode"]


class FaultType(Enum):
    """The fault classes FLIM injects."""

    BITFLIP = "bitflip"
    STUCK_AT = "stuck_at"
    FAULTY_ROWS = "faulty_rows"
    FAULTY_COLUMNS = "faulty_columns"


class StuckPolarity(Enum):
    """Which level a stuck cell is frozen at.

    ``RANDOM`` draws a polarity per faulty cell — the paper's default, as
    end-of-life cells stick at either resistive state.
    """

    STUCK_AT_0 = 0   # frozen at logic 0 (-1 in the bipolar domain)
    STUCK_AT_1 = 1   # frozen at logic 1 (+1 in the bipolar domain)
    RANDOM = 2


class SpatialMode(Enum):
    """Spatial distribution of rate-based fault masks.

    The paper draws faulty cells i.i.d. uniform over the crossbar
    (``IID``).  Real device populations are often *spatially correlated*
    — process variation clusters, shared row drivers — and correlated
    masks behave qualitatively differently from i.i.d. ones at the same
    injection rate (arXiv:2302.09902).  The injection rate still sets the
    exact number of faulty cells in every mode; only their placement
    changes.

    ``CLUSTERED``  — faults grow in compact neighbourhoods of
    ``cluster_size`` cells around random seed cells.

    ``ROW_BURST``  — faults fill bursts of ``cluster_size`` consecutive
    rows (a failing row driver takes its neighbours with it).
    """

    IID = "iid"
    CLUSTERED = "clustered"
    ROW_BURST = "row_burst"


class Semantics(Enum):
    """Abstraction level at which a fault mask is applied
    (docs/fault-models.md#semantics-where-a-mask-acts).

    ``OUTPUT``  — FLIM's fast path: masks act on the layer's feature map
    (flip/force output elements).  This is the paper's contribution: the
    speed-for-accuracy trade against device-level simulation.

    ``WEIGHT``  — masks act on the binarized kernel bits resident in the
    crossbar; a stuck weight bit persists for every XNOR reusing the cell.
    Optional semantics for stuck-at faults (frozen operand instead of a
    dead gate).

    ``PRODUCT`` — device-true reference: masks corrupt individual XNOR
    products via the tile schedule.  Slow; used for verification and the
    accuracy-ablation benchmark.
    """

    OUTPUT = "output"
    WEIGHT = "weight"
    PRODUCT = "product"


_DEFAULT_SEMANTICS = {
    FaultType.BITFLIP: Semantics.OUTPUT,
    FaultType.FAULTY_ROWS: Semantics.OUTPUT,
    FaultType.FAULTY_COLUMNS: Semantics.OUTPUT,
    # a dead gate's output line rails independent of the data — the
    # OUTPUT-level freeze is the canonical (and strongest) reading;
    # WEIGHT-level (frozen stored operand) remains available as an option
    FaultType.STUCK_AT: Semantics.OUTPUT,
}


@dataclass(frozen=True)
class FaultSpec:
    """A single fault-injection directive for the Fault Generator.

    Parameters
    ----------
    kind:
        Fault class to inject.
    rate:
        Injection rate — fraction of crossbar cells set in the mask
        (bit-flip / stuck-at).  "The injection rate specifies the number
        of elements within the array set to 1" (§III).
    count:
        Number of faulty rows/columns (structural faults).
    period:
        Dynamic-fault period n: the fault is sensitized every n-th XNOR
        operation.  0 or 1 means static (every operation).
    polarity:
        Stuck level for stuck-at faults.
    semantics:
        Mask-application level; ``None`` selects the canonical default
        per fault kind — OUTPUT level for every kind, including stuck-at
        (a dead gate rails its output line regardless of the stored
        operand); pass ``Semantics.WEIGHT`` explicitly for the
        frozen-stored-operand reading, or ``Semantics.PRODUCT`` for the
        device-true per-XNOR reference path.
    spatial:
        Placement distribution of rate-based masks (bit-flip / stuck-at):
        i.i.d. uniform (the paper's default), clustered neighbourhoods,
        or row bursts — see :class:`SpatialMode`.
    cluster_size:
        Cells per cluster (``CLUSTERED``) or rows per burst
        (``ROW_BURST``); must be ≥ 1 for correlated modes and 0 for IID.
    layers:
        Restrict this spec to the named mapped layers; ``None`` (default)
        applies it to every mapped layer the generator visits.  Scenario
        compilation uses this to compose clauses targeting different
        layer subsets into one flat spec list.
    """

    kind: FaultType
    rate: float = 0.0
    count: int = 0
    period: int = 0
    polarity: StuckPolarity = StuckPolarity.RANDOM
    semantics: Semantics | None = field(default=None)
    spatial: SpatialMode = SpatialMode.IID
    cluster_size: int = 0
    layers: tuple[str, ...] | None = None

    def __post_init__(self):
        try:
            if isinstance(self.rate, str):
                raise TypeError
            rate = float(self.rate)
        except (TypeError, ValueError):
            raise ValueError(f"rate must be a number, got {self.rate!r}") from None
        if not math.isfinite(rate) or not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        for name in ("count", "period", "cluster_size"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(
                    f"{name} must be an integer, got {value!r}") from None
        if self.count < 0:
            raise ValueError("count must be non-negative")
        if self.period < 0:
            raise ValueError(
                "period must be non-negative (0/1 = static, n >= 2 = "
                "sensitized every n-th XNOR operation)")
        # coerce enum-valued fields passed as their string values, so a
        # spatial='clustered' typo-path can never silently fall back to
        # an i.i.d. mask downstream
        for name, enum in (("kind", FaultType), ("spatial", SpatialMode)):
            try:
                object.__setattr__(self, name, enum(getattr(self, name)))
            except ValueError:
                raise ValueError(
                    f"{name} must be one of "
                    f"{[member.value for member in enum]}, "
                    f"got {getattr(self, name)!r}") from None
        if self.semantics is not None:
            try:
                object.__setattr__(self, "semantics", Semantics(self.semantics))
            except ValueError:
                raise ValueError(
                    f"semantics must be one of "
                    f"{[member.value for member in Semantics]}, "
                    f"got {self.semantics!r}") from None
        if self.kind in (FaultType.FAULTY_ROWS, FaultType.FAULTY_COLUMNS):
            if self.rate:
                raise ValueError("row/column faults are specified by count, not rate")
            if self.spatial != SpatialMode.IID:
                raise ValueError("spatial modes apply to rate-based faults; "
                                 "line faults are already whole-line events")
        if self.kind == FaultType.STUCK_AT and self.period:
            raise ValueError("stuck-at faults are permanent; period applies to bit-flips")
        if self.spatial == SpatialMode.IID:
            if self.cluster_size:
                raise ValueError("cluster_size applies to clustered/row-burst "
                                 "masks; IID placement takes none")
        elif self.cluster_size < 1:
            raise ValueError(f"{self.spatial.value} placement needs "
                             f"cluster_size >= 1, got {self.cluster_size}")
        if self.layers is not None:
            if (isinstance(self.layers, str)
                    or not all(isinstance(name, str) for name in self.layers)):
                raise ValueError("layers must be a sequence of layer names")
            object.__setattr__(self, "layers", tuple(self.layers))
            if not self.layers:
                raise ValueError("layers must name at least one layer "
                                 "(use None for all mapped layers)")

    @property
    def effective_semantics(self) -> Semantics:
        if self.semantics is not None:
            return self.semantics
        return _DEFAULT_SEMANTICS[self.kind]

    @staticmethod
    def bitflip(rate: float, period: int = 0,
                semantics: Semantics | None = None,
                spatial: SpatialMode = SpatialMode.IID,
                cluster_size: int = 0,
                layers: tuple[str, ...] | None = None) -> "FaultSpec":
        """Transient bit-flips at a given injection rate."""
        return FaultSpec(FaultType.BITFLIP, rate=rate, period=period,
                         semantics=semantics, spatial=spatial,
                         cluster_size=cluster_size, layers=layers)

    @staticmethod
    def stuck_at(rate: float, polarity: StuckPolarity = StuckPolarity.RANDOM,
                 semantics: Semantics | None = None,
                 spatial: SpatialMode = SpatialMode.IID,
                 cluster_size: int = 0,
                 layers: tuple[str, ...] | None = None) -> "FaultSpec":
        """Permanent stuck-at faults at a given injection rate."""
        return FaultSpec(FaultType.STUCK_AT, rate=rate, polarity=polarity,
                         semantics=semantics, spatial=spatial,
                         cluster_size=cluster_size, layers=layers)

    @staticmethod
    def faulty_rows(count: int) -> "FaultSpec":
        """``count`` entire crossbar rows marked faulty."""
        return FaultSpec(FaultType.FAULTY_ROWS, count=count)

    @staticmethod
    def faulty_columns(count: int) -> "FaultSpec":
        """``count`` entire crossbar columns marked faulty."""
        return FaultSpec(FaultType.FAULTY_COLUMNS, count=count)
