"""Direct unit tests of the semantics functions against brute force."""

import numpy as np

from repro.binary import QuantDense
from repro.core import LayerMapping
from repro.core.semantics import (apply_output_flips, apply_output_stuck,
                                  apply_weight_stuck, flip_signs,
                                  product_flip, product_stuck)


def dense_mapping(units=5, features=12, rows=4, cols=3, seed=0):
    layer = QuantDense(units, input_quantizer="ste_sign")
    layer.build((features,), np.random.default_rng(seed))
    return layer, LayerMapping(layer, rows, cols)


def bipolar(rng, shape):
    return rng.choice([-1.0, 1.0], size=shape).astype(np.float32)


def test_output_flips_multi_dim(rng):
    """Selectors index the flattened per-image tensor, any rank."""
    fm = rng.standard_normal((2, 3, 3, 4)).astype(np.float32)
    selector = np.zeros(36, dtype=bool)
    selector[[0, 17, 35]] = True
    out = apply_output_flips(fm, flip_signs(selector))
    flat_in = fm.reshape(2, -1)
    flat_out = out.reshape(2, -1)
    np.testing.assert_array_equal(flat_out[:, selector], -flat_in[:, selector])
    np.testing.assert_array_equal(flat_out[:, ~selector], flat_in[:, ~selector])


def test_output_stuck_rails(rng):
    fm = rng.standard_normal((3, 8)).astype(np.float32)
    selector = np.zeros(8, dtype=bool)
    selector[2] = selector[5] = True
    signs = np.array([1, 1, -1, 1, 1, 1, 1, 1], dtype=np.float32)
    out = apply_output_stuck(fm, selector, signs, rail=12.0)
    assert (out[:, 2] == -12.0).all()
    assert (out[:, 5] == 12.0).all()
    np.testing.assert_array_equal(out[:, ~selector], fm[:, ~selector])


def test_weight_stuck_conv_shape(rng):
    kernel = bipolar(rng, (3, 3, 2, 4))
    kmask = np.zeros((18, 4), dtype=bool)
    kmask[5, 1] = True
    kvals = np.full((18, 4), -1.0, dtype=np.float32)
    out = apply_weight_stuck(kernel, kmask, kvals)
    assert out.shape == kernel.shape
    assert out.reshape(18, 4)[5, 1] == -1.0


def test_product_flip_matches_bruteforce(rng):
    """product_flip must equal recomputing the GEMM with flipped products."""
    layer, mapping = dense_mapping()
    cols = bipolar(rng, (6, 12))
    qw = bipolar(rng, (12, 5))
    clean = cols @ qw
    cells = [(1, 0), (3, 2)]
    got = product_flip(clean, cols, qw, mapping, cells, period=0)

    want = np.zeros_like(clean)
    for p in range(6):
        for f in range(5):
            total = 0.0
            for t in range(12):
                prod = cols[p, t] * qw[t, f]
                if (t % 4, f % 3) in cells:
                    prod = -prod
                total += prod
            want[p, f] = total
    np.testing.assert_allclose(got, want)


def test_product_stuck_matches_bruteforce(rng):
    layer, mapping = dense_mapping()
    cols = bipolar(rng, (4, 12))
    qw = bipolar(rng, (12, 5))
    clean = cols @ qw
    cells = [(0, 1)]
    signs = {(0, 1): -1.0}
    got = product_stuck(clean, cols, qw, mapping, cells, signs)

    want = np.zeros_like(clean)
    for p in range(4):
        for f in range(5):
            total = 0.0
            for t in range(12):
                if (t % 4, f % 3) == (0, 1):
                    total += -1.0
                else:
                    total += cols[p, t] * qw[t, f]
            want[p, f] = total
    np.testing.assert_allclose(got, want)


def test_product_stuck_skips_padding(rng):
    """Zero entries in the im2col matrix are unscheduled ops: no effect."""
    layer, mapping = dense_mapping()
    cols = bipolar(rng, (4, 12))
    cols[:, 0] = 0.0  # padding term
    qw = bipolar(rng, (12, 5))
    clean = cols @ qw
    # cell (0, 1) covers terms {0, 4, 8}; term 0 is padding
    got = product_stuck(clean, cols, qw, mapping, [(0, 1)], {(0, 1): 1.0})
    padded_contrib = got.copy()
    cols2 = cols.copy()
    # only terms 4 and 8 should be forced
    want = clean.copy()
    for p in range(4):
        for f in (1, 4):
            want[p, f] = clean[p, f] - cols2[p, 4] * qw[4, f] + 1.0 \
                - cols2[p, 8] * qw[8, f] + 1.0
    np.testing.assert_allclose(padded_contrib, want)


def test_product_flip_dynamic_period_single_position(rng):
    """For a dense layer (P=1 per image), tile t occurs at step t*1 + 0;
    period 2 flips only tiles with even occurrence index."""
    layer, mapping = dense_mapping()
    # batch of 1 so occurrence arithmetic is directly visible
    cols = bipolar(rng, (1, 12))
    qw = bipolar(rng, (12, 5))
    clean = cols @ qw
    cell = (1, 1)  # terms {1,5,9} x channels {1,4}
    got = product_flip(clean, cols, qw, mapping, [cell], period=2)
    schedule = mapping.schedule
    want = clean.copy()
    for t in (1, 5, 9):
        for f in (1, 4):
            occ = schedule.occurrence_index(0, t, f)
            if occ % 2 == 0:
                want[0, f] -= 2 * cols[0, t] * qw[t, f]
    np.testing.assert_allclose(got, want)
