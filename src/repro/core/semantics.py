"""Mask application at the three abstraction levels
(docs/fault-models.md#semantics-where-a-mask-acts).

The FLIM fast path applies masks "by performing another XNOR operation"
on the computed feature map — in the bipolar domain that is a sign flip.
The weight level freezes binarized kernel bits; the product level corrupts
individual XNOR products through the tile schedule and serves as the
device-true reference the fast path is verified against.
"""

from __future__ import annotations

import numpy as np

from .mapping import LayerMapping

__all__ = [
    "flip_signs",
    "apply_output_flips",
    "apply_output_stuck",
    "apply_weight_stuck",
    "product_flip",
    "product_stuck",
]


def _per_image(feature_map: np.ndarray) -> np.ndarray:
    """View of the feature map flattened to (batch, outputs_per_image)."""
    return feature_map.reshape(feature_map.shape[0], -1)


def flip_signs(selector: np.ndarray) -> np.ndarray:
    """The ±1 float32 vector :func:`apply_output_flips` multiplies by:
    -1 where ``selector`` is set, +1 elsewhere."""
    return np.where(selector, np.float32(-1), np.float32(1))


def apply_output_flips(feature_map: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Flip (negate) the output elements of every image where ``signs``
    (from :func:`flip_signs`) is -1, into a new array.

    Multiplying by -1 is an exact negation, -0.0 included, and by +1 an
    exact copy.  On strictly binary tensors this is exactly the paper's
    Fig. 3 mask XNOR; on integer popcount maps it is the op-level
    upper-bound abstraction FLIM trades accuracy for.  The vector takes
    the map's dtype, so an int16 popcount map stays int16.
    """
    signs = signs.astype(feature_map.dtype, copy=False)
    return (_per_image(feature_map) * signs).reshape(feature_map.shape)


def apply_output_stuck(feature_map: np.ndarray, selector: np.ndarray,
                       signs: np.ndarray, rail: float) -> np.ndarray:
    """Freeze selected output elements at their rail (canonical stuck-at).

    A transient bit-flip inverts a result that still depends on the data;
    a *dead* gate does not compute at all — its output line is frozen, so
    the accumulated feature-map element rails at ``±rail`` (the reduction
    length K, i.e. all-match / all-mismatch) regardless of the inputs.
    This data-independence is what makes permanent faults so much more
    damaging per injection rate than bit-flips (paper Fig. 4a vs 4b and
    the 10× tighter sweep axis of Fig. 5b).

    ``signs`` holds the ±1 stuck polarity per output position (only read
    where ``selector`` is set).  The copy keeps the map's dtype: on an
    int16 popcount map the rails ``±K`` are exact integers.
    """
    flat = _per_image(feature_map).copy()
    flat[:, selector] = signs[selector] * rail
    return flat.reshape(feature_map.shape)


def apply_weight_stuck(qkernel: np.ndarray, kmask: np.ndarray,
                       kvalues: np.ndarray) -> np.ndarray:
    """Freeze binarized kernel bits at their stuck levels.

    ``qkernel`` may be conv-shaped ``(kh, kw, c_in, F)`` or dense-shaped
    ``(K, F)``; the mask planes are ``(K, F)``.
    """
    flat = qkernel.reshape(-1, qkernel.shape[-1])
    out = np.where(kmask, kvalues, flat)
    return out.reshape(qkernel.shape).astype(qkernel.dtype)


def _occurrence_grid(mapping: LayerMapping, t_sel: np.ndarray, f_sel: np.ndarray,
                     positions: int) -> np.ndarray:
    """Occurrence index of ops (p, t, f) for one gate — shape (P, |t|, |f|)."""
    schedule = mapping.schedule
    tile = ((f_sel[None, :] // schedule.cols) * schedule.row_passes
            + (t_sel[:, None] // schedule.rows))
    p = np.arange(positions)[:, None, None]
    return tile[None, :, :] * schedule.positions + p


def product_flip(out_flat: np.ndarray, cols: np.ndarray, qw: np.ndarray,
                 mapping: LayerMapping, flip_cells: list[tuple[int, int]],
                 period: int = 0) -> np.ndarray:
    """Device-true bit-flips: negate individual XNOR products.

    ``out_flat`` is the clean GEMM result ``(batch*P, F)``; ``cols`` the
    bipolar im2col matrix (zeros at padding — padded ops are never
    scheduled, so faults there have no effect); ``qw`` the bipolar kernel
    ``(K, F)``.  A flipped product changes its accumulation by ``-2·p``.
    """
    out = out_flat.copy()
    positions = mapping.schedule.positions
    batch = out_flat.shape[0] // positions
    for row, col in flip_cells:
        t_sel = mapping.cell_terms(row)
        f_sel = mapping.cell_channels(col)
        prods = cols[:, t_sel][:, :, None] * qw[t_sel][:, f_sel][None, :, :]
        if period > 1:
            occ = _occurrence_grid(mapping, t_sel, f_sel, positions)
            active = (occ % period == 0)
            active = np.tile(active, (batch, 1, 1))
            prods = prods * active
        out[:, f_sel] -= 2.0 * prods.sum(axis=1)
    return out


def product_stuck(out_flat: np.ndarray, cols: np.ndarray, qw: np.ndarray,
                  mapping: LayerMapping, stuck_cells: list[tuple[int, int]],
                  stuck_signs: dict[tuple[int, int], float]) -> np.ndarray:
    """Device-true stuck-at: force individual XNOR products to ±1.

    Only ops actually scheduled (non-padding) are affected: a stuck cell
    replaces the product ``x·w`` with the stuck bipolar level.
    """
    out = out_flat.copy()
    for row, col in stuck_cells:
        t_sel = mapping.cell_terms(row)
        f_sel = mapping.cell_channels(col)
        sign = stuck_signs[(row, col)]
        x_block = cols[:, t_sel]
        prods = x_block[:, :, None] * qw[t_sel][:, f_sel][None, :, :]
        valid = (x_block != 0)[:, :, None]
        delta = (sign - prods) * valid
        out[:, f_sel] += delta.sum(axis=1)
    return out
