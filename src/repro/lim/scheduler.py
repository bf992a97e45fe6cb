"""Scheduling of XNOR operation streams onto crossbar tiles.

A mapped layer is a binary GEMM ``X (P×K) @ W (K×F)``: ``P`` spatial
positions (im2col rows), ``K`` reduction terms, ``F`` output channels.
Every multiply-accumulate term is one XNOR op, so a layer issues
``N = P·K·F`` XNOR operations per image.

The canonical placement is **weight-stationary with column-parallel
outputs**, the convention of the paper's Fig. 1: crossbar column ``c``
accumulates output channels ``f ≡ c (mod cols)``, crossbar row ``r`` hosts
reduction terms ``t ≡ r (mod rows)``, and input positions are streamed
one per step.  A cell is therefore reused ``≈ P · K/R · F/C`` times per
image — the reuse amplification that makes permanent (stuck-at) faults so
much more damaging than transient bit-flips
(docs/fault-models.md#semantics-where-a-mask-acts).

Both the FLIM fast path (:mod:`repro.core.mapping`) and the device-level
simulator (:mod:`repro.lim.xfault`) consume this one schedule, which is
what makes their fault mappings verifiable against each other — the
reproduction of the paper's "fault distribution and mapping have been
verified with X-Fault".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TileSchedule"]


@dataclass(frozen=True)
class TileSchedule:
    """Static schedule of a ``P × K × F`` op grid onto an ``R × C`` crossbar."""

    positions: int  # P — streamed input positions (im2col rows, per image)
    terms: int      # K — reduction length (XNOR products per output)
    filters: int    # F — output channels
    rows: int       # R — crossbar rows (terms dimension)
    cols: int       # C — crossbar columns (output-channel dimension)

    def __post_init__(self):
        for field in ("positions", "terms", "filters", "rows", "cols"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")

    # -- derived sizes -----------------------------------------------------
    @property
    def row_passes(self) -> int:
        """Weight-tile loads along the reduction dimension."""
        return -(-self.terms // self.rows)

    @property
    def col_passes(self) -> int:
        """Weight-tile loads along the output-channel dimension."""
        return -(-self.filters // self.cols)

    @property
    def tiles(self) -> int:
        """Distinct weight tiles programmed over the layer."""
        return self.row_passes * self.col_passes

    @property
    def steps(self) -> int:
        """Total crossbar evaluations: every tile streams every position."""
        return self.tiles * self.positions

    @property
    def total_ops(self) -> int:
        return self.positions * self.terms * self.filters

    @property
    def cell_reuse(self) -> float:
        """Average number of XNOR ops executed per crossbar gate."""
        return self.total_ops / (self.rows * self.cols)

    # -- placement arithmetic ------------------------------------------------
    def cell_for_op(self, term: int, channel: int) -> tuple[int, int]:
        """Crossbar gate executing product ``term`` of output channel ``channel``."""
        return term % self.rows, channel % self.cols

    def terms_on_row(self, row: int) -> np.ndarray:
        """All reduction-term indices hosted by crossbar row ``row``."""
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} out of range 0..{self.rows - 1}")
        return np.arange(row, self.terms, self.rows)

    def channels_on_column(self, col: int) -> np.ndarray:
        """All output channels accumulated by crossbar column ``col``."""
        if not 0 <= col < self.cols:
            raise IndexError(f"column {col} out of range 0..{self.cols - 1}")
        return np.arange(col, self.filters, self.cols)

    def ops_on_cell(self, row: int, col: int) -> int:
        """Number of XNOR ops a given gate executes per image."""
        return (len(self.terms_on_row(row)) * len(self.channels_on_column(col))
                * self.positions)

    # -- step iteration (device-level simulator) ------------------------------
    def tile_blocks(self, tile: int) -> tuple[np.ndarray, np.ndarray]:
        """Term and channel index blocks of weight tile ``tile``.

        Tiles are ordered column-pass major: ``tile = cp * row_passes + rp``.
        The final passes may be ragged.
        """
        if not 0 <= tile < self.tiles:
            raise IndexError(f"tile {tile} out of range 0..{self.tiles - 1}")
        col_pass, row_pass = divmod(tile, self.row_passes)
        term_start = row_pass * self.rows
        chan_start = col_pass * self.cols
        term_idx = np.arange(term_start, min(term_start + self.rows, self.terms))
        chan_idx = np.arange(chan_start, min(chan_start + self.cols, self.filters))
        return term_idx, chan_idx

    def occurrence_index(self, position: int, term: int, channel: int) -> int:
        """Per-gate use counter value when the op executes.

        Dynamic faults sensitize a gate every n-th use; an op is affected
        when this occurrence index is a multiple of n.
        """
        tile = (channel // self.cols) * self.row_passes + term // self.rows
        return tile * self.positions + position
