"""Fault-mask construction (the Fault Generator's "fault distribution").

A mask is a 2-dimensional Boolean array with the dimensions of the
crossbar executing the layer; the injection rate sets the exact number of
elements marked faulty (§III, "Fault masking").  Stuck-at masks carry an
additional value plane recording the frozen level of each faulty cell.
Faulty rows/columns are encoded by setting whole lines of the bit-flip
mask, exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .faults import FaultSpec, FaultType, SpatialMode, StuckPolarity

__all__ = ["LayerMasks", "build_bitflip_mask", "build_stuck_mask",
           "build_line_mask", "build_clustered_mask", "build_row_burst_mask",
           "build_rate_mask", "assemble_layer_masks"]


def _exact_count(rate: float, cells: int) -> int:
    """Number of faulty cells for an injection rate (paper: exact count)."""
    return int(round(rate * cells))


def build_bitflip_mask(rows: int, cols: int, rate: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Uniformly distributed bit-flip mask at the given injection rate."""
    mask = np.zeros((rows, cols), dtype=bool)
    count = _exact_count(rate, rows * cols)
    if count:
        flat = rng.choice(rows * cols, size=count, replace=False)
        mask.reshape(-1)[flat] = True
    return mask


def build_clustered_mask(rows: int, cols: int, rate: float, cluster_size: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Spatially-clustered mask: compact neighbourhoods of faulty cells.

    Seed cells are drawn uniformly; each cluster then absorbs the
    ``cluster_size`` nearest unmarked cells (expanding Chebyshev rings in
    a fixed scan order), so correlated variation forms contiguous blobs
    instead of the i.i.d. salt-and-pepper of :func:`build_bitflip_mask`.
    The injection rate still sets the *exact* total number of faulty
    cells, preserving the paper's exact-count contract.
    """
    if cluster_size < 1:
        raise ValueError(f"cluster_size must be >= 1, got {cluster_size}")
    mask = np.zeros((rows, cols), dtype=bool)
    remaining = _exact_count(rate, rows * cols)
    max_radius = max(rows, cols)
    while remaining > 0:
        seed_r = int(rng.integers(rows))
        seed_c = int(rng.integers(cols))
        take = min(cluster_size, remaining)
        for radius in range(max_radius + 1):
            if take == 0:
                break
            r_lo, r_hi = max(0, seed_r - radius), min(rows, seed_r + radius + 1)
            c_lo, c_hi = max(0, seed_c - radius), min(cols, seed_c + radius + 1)
            for r in range(r_lo, r_hi):
                for c in range(c_lo, c_hi):
                    if take == 0:
                        break
                    if max(abs(r - seed_r), abs(c - seed_c)) != radius:
                        continue  # interior ring cells were already visited
                    if not mask[r, c]:
                        mask[r, c] = True
                        take -= 1
                        remaining -= 1
    return mask


def build_row_burst_mask(rows: int, cols: int, rate: float, burst_rows: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Row-burst mask: faults fill bands of consecutive crossbar rows.

    Models a degrading row driver taking its neighbouring word lines with
    it: each burst starts at a uniformly drawn row and fills
    ``burst_rows`` consecutive rows cell-by-cell (left to right) until
    the exact injection count is placed.  Fully saturated bursts fall
    back to the first unmarked cell in scan order, so the count contract
    holds at any rate up to 1.
    """
    if burst_rows < 1:
        raise ValueError(f"burst_rows must be >= 1, got {burst_rows}")
    mask = np.zeros((rows, cols), dtype=bool)
    remaining = _exact_count(rate, rows * cols)
    while remaining > 0:
        start = int(rng.integers(rows))
        placed = False
        for r in range(start, min(start + burst_rows, rows)):
            for c in range(cols):
                if remaining == 0:
                    break
                if not mask[r, c]:
                    mask[r, c] = True
                    remaining -= 1
                    placed = True
        if not placed and remaining > 0:
            # the drawn burst was already saturated: place on the first
            # unmarked cell so high rates always terminate
            flat = np.flatnonzero(~mask.reshape(-1))
            mask.reshape(-1)[flat[0]] = True
            remaining -= 1
    return mask


def build_rate_mask(rows: int, cols: int, spec: FaultSpec,
                    rng: np.random.Generator) -> np.ndarray:
    """Mask for one rate-based spec, honouring its spatial mode."""
    if spec.spatial == SpatialMode.CLUSTERED:
        return build_clustered_mask(rows, cols, spec.rate, spec.cluster_size,
                                    rng)
    if spec.spatial == SpatialMode.ROW_BURST:
        return build_row_burst_mask(rows, cols, spec.rate, spec.cluster_size,
                                    rng)
    return build_bitflip_mask(rows, cols, spec.rate, rng)


def _stuck_values(mask: np.ndarray, polarity: StuckPolarity,
                  rng: np.random.Generator) -> np.ndarray:
    """Frozen {0, 1} levels for the set cells of a stuck mask."""
    values = np.zeros(mask.shape, dtype=np.uint8)
    if polarity == StuckPolarity.RANDOM:
        values[mask] = rng.integers(0, 2, size=int(mask.sum()), dtype=np.uint8)
    else:
        values[mask] = polarity.value
    return values


def build_stuck_mask(rows: int, cols: int, rate: float,
                     polarity: StuckPolarity,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Stuck-at mask plus the per-cell frozen levels.

    Returns ``(mask, values)`` where ``values`` holds {0, 1} levels (only
    meaningful where ``mask`` is set).
    """
    mask = build_bitflip_mask(rows, cols, rate, rng)
    return mask, _stuck_values(mask, polarity, rng)


def build_line_mask(rows: int, cols: int, kind: FaultType, count: int,
                    rng: np.random.Generator,
                    indices: np.ndarray | None = None) -> np.ndarray:
    """Mask with ``count`` whole rows or columns set.

    Specific line indices may be forced via ``indices``; otherwise distinct
    lines are drawn uniformly.
    """
    mask = np.zeros((rows, cols), dtype=bool)
    size = rows if kind == FaultType.FAULTY_ROWS else cols
    if count > size:
        raise ValueError(f"cannot mark {count} faulty lines on a size-{size} axis")
    if indices is None:
        indices = rng.choice(size, size=count, replace=False) if count else np.array([], dtype=int)
    if kind == FaultType.FAULTY_ROWS:
        mask[np.asarray(indices, dtype=int), :] = True
    else:
        mask[:, np.asarray(indices, dtype=int)] = True
    return mask


@dataclass
class LayerMasks:
    """All fault state assigned to one mapped layer's crossbar.

    ``flip_mask``/``flip_period`` drive transient (possibly dynamic)
    bit-flips; ``stuck_mask``/``stuck_values`` drive permanent stuck-at
    faults; ``semantics`` record at which level each plane is applied.
    """

    rows: int
    cols: int
    flip_mask: np.ndarray = field(default=None)
    flip_period: int = 0
    stuck_mask: np.ndarray = field(default=None)
    stuck_values: np.ndarray = field(default=None)
    flip_semantics: str = "output"
    stuck_semantics: str = "output"

    def __post_init__(self):
        if self.flip_mask is None:
            self.flip_mask = np.zeros((self.rows, self.cols), dtype=bool)
        if self.stuck_mask is None:
            self.stuck_mask = np.zeros((self.rows, self.cols), dtype=bool)
        if self.stuck_values is None:
            self.stuck_values = np.zeros((self.rows, self.cols), dtype=np.uint8)
        for plane in (self.flip_mask, self.stuck_mask, self.stuck_values):
            if plane.shape != (self.rows, self.cols):
                raise ValueError(
                    f"mask plane shape {plane.shape} != crossbar {(self.rows, self.cols)}")

    @property
    def has_faults(self) -> bool:
        return bool(self.flip_mask.any() or self.stuck_mask.any())

    @property
    def hooks_gemm(self) -> bool:
        """Whether a faulty plane acts at the weight or product level,
        below the feature map, and so changes the layer's GEMM result."""
        return bool((self.flip_semantics != "output" and self.flip_mask.any())
                    or (self.stuck_semantics != "output"
                        and self.stuck_mask.any()))

    def fault_counts(self) -> dict[str, int]:
        return {"bitflips": int(self.flip_mask.sum()),
                "stuck": int(self.stuck_mask.sum())}

    def flip_vector(self) -> np.ndarray:
        """Flattened 1-D noise vector (the paper's 'fault vector extraction')."""
        return self.flip_mask.reshape(-1)

    def stuck_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        return self.stuck_mask.reshape(-1), self.stuck_values.reshape(-1)


def assemble_layer_masks(rows: int, cols: int, specs: list[FaultSpec],
                         rng: np.random.Generator) -> LayerMasks:
    """Combine fault specs into one :class:`LayerMasks` for a crossbar.

    Bit-flip and line faults OR into the flip plane (the paper's
    treatment); stuck-at specs OR into the stuck plane with later specs
    winning value conflicts.  A dynamic period on any bit-flip spec applies
    to the whole flip plane (one period per layer, as in Fig. 4c).
    """
    masks = LayerMasks(rows=rows, cols=cols)
    for spec in specs:
        if spec.kind == FaultType.BITFLIP:
            masks.flip_mask |= build_rate_mask(rows, cols, spec, rng)
            if spec.period > 1:
                masks.flip_period = spec.period
            masks.flip_semantics = spec.effective_semantics.value
        elif spec.kind in (FaultType.FAULTY_ROWS, FaultType.FAULTY_COLUMNS):
            masks.flip_mask |= build_line_mask(rows, cols, spec.kind, spec.count, rng)
            masks.flip_semantics = spec.effective_semantics.value
        elif spec.kind == FaultType.STUCK_AT:
            mask = build_rate_mask(rows, cols, spec, rng)
            values = _stuck_values(mask, spec.polarity, rng)
            masks.stuck_mask |= mask
            masks.stuck_values[mask] = values[mask]
            masks.stuck_semantics = spec.effective_semantics.value
        else:
            raise ValueError(f"unhandled fault kind {spec.kind}")
    return masks
