"""Property-based tests (hypothesis) on the platform's core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (FaultSpec, assemble_layer_masks, build_bitflip_mask,
                        march_test, tile_vector)
from repro.core.semantics import (apply_output_flips, apply_weight_stuck,
                                  flip_signs)
from repro.lim import Crossbar, CrossbarConfig, TileSchedule, ideal_device_params


@given(st.integers(1, 40), st.integers(1, 400))
@settings(max_examples=60, deadline=None)
def test_tile_vector_periodicity(pattern_len, length):
    """Tiled vectors repeat the pattern exactly."""
    pattern = np.arange(pattern_len)
    tiled = tile_vector(pattern, length)
    assert len(tiled) == length
    for i in range(length):
        assert tiled[i] == pattern[i % pattern_len]


@given(st.integers(1, 6), st.integers(2, 30), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_output_flip_is_involution(batch, outputs, seed):
    """Applying the same flip selector twice restores the tensor."""
    rng = np.random.default_rng(seed)
    feature_map = rng.standard_normal((batch, outputs)).astype(np.float32)
    selector = rng.random(outputs) < 0.4
    once = apply_output_flips(feature_map, flip_signs(selector))
    twice = apply_output_flips(once, flip_signs(selector))
    np.testing.assert_array_equal(twice, feature_map)
    # flipped positions are exact negations, others untouched
    np.testing.assert_array_equal(once[:, selector], -feature_map[:, selector])
    np.testing.assert_array_equal(once[:, ~selector], feature_map[:, ~selector])


@given(st.integers(2, 20), st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_weight_stuck_is_idempotent(k, f, seed):
    """Freezing frozen weights changes nothing."""
    rng = np.random.default_rng(seed)
    kernel = rng.choice([-1.0, 1.0], size=(k, f)).astype(np.float32)
    kmask = rng.random((k, f)) < 0.3
    kvals = rng.choice([-1.0, 1.0], size=(k, f)).astype(np.float32)
    once = apply_weight_stuck(kernel, kmask, kvals)
    twice = apply_weight_stuck(once, kmask, kvals)
    np.testing.assert_array_equal(once, twice)
    np.testing.assert_array_equal(once[kmask], kvals[kmask])
    np.testing.assert_array_equal(once[~kmask], kernel[~kmask])


@given(st.floats(0.0, 1.0, allow_nan=False), st.floats(0.0, 1.0, allow_nan=False),
       st.integers(2, 20), st.integers(2, 20), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_mask_rate_monotonicity(rate_a, rate_b, rows, cols, seed):
    """Higher injection rates never produce smaller masks."""
    low, high = sorted([rate_a, rate_b])
    mask_low = build_bitflip_mask(rows, cols, low, np.random.default_rng(seed))
    mask_high = build_bitflip_mask(rows, cols, high, np.random.default_rng(seed))
    assert mask_low.sum() <= mask_high.sum()


@given(st.integers(1, 10), st.integers(1, 50), st.integers(1, 16),
       st.integers(1, 12), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_schedule_tiles_partition_exactly(positions, terms, filters, rows, cols):
    """Every (term, channel) pair belongs to exactly one weight tile."""
    schedule = TileSchedule(positions=positions, terms=terms, filters=filters,
                            rows=rows, cols=cols)
    covered = np.zeros((terms, filters), dtype=int)
    for tile in range(schedule.tiles):
        term_idx, chan_idx = schedule.tile_blocks(tile)
        covered[np.ix_(term_idx, chan_idx)] += 1
    assert (covered == 1).all()
    assert schedule.steps == schedule.tiles * positions


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3),
                          st.integers(0, 1)),
                min_size=0, max_size=8, unique_by=lambda t: (t[0], t[1])))
@settings(max_examples=40, deadline=None)
def test_march_test_finds_every_stuck_gate(faults):
    """The march test detects exactly the injected stuck gates."""
    xbar = Crossbar(CrossbarConfig(rows=6, cols=4, gate_family="imply",
                                   device=ideal_device_params()))
    for row, col, value in faults:
        xbar.inject_stuck_gate(row, col, value)
    detection = march_test(xbar)
    want_high = {(r, c) for r, c, v in faults if v == 1}
    want_low = {(r, c) for r, c, v in faults if v == 0}
    assert set(detection["stuck_at_1"]) == want_high
    assert set(detection["stuck_at_0"]) == want_low


@given(st.floats(0.0, 0.5, allow_nan=False), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_assembled_masks_union_bound(rate, seed):
    """Combined specs OR together: the union is at least each part."""
    rng = np.random.default_rng(seed)
    masks = assemble_layer_masks(10, 10, [
        FaultSpec.bitflip(rate),
        FaultSpec.faulty_rows(1),
    ], rng)
    assert masks.flip_mask.sum() >= 10  # the whole faulty row
    assert masks.flip_mask.sum() >= int(round(rate * 100))


@given(st.integers(1, 4), st.integers(1, 30), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_flip_then_stuck_composition_order(batch, outputs, seed):
    """Stuck-at forces win over flips on overlapping positions (the
    injector applies flips first, then freezes)."""
    from repro.core.semantics import apply_output_stuck

    rng = np.random.default_rng(seed)
    feature_map = rng.standard_normal((batch, outputs)).astype(np.float32)
    flip_sel = rng.random(outputs) < 0.5
    stuck_sel = rng.random(outputs) < 0.5
    signs = rng.choice([-1.0, 1.0], size=outputs)
    rail = 9.0
    out = apply_output_flips(feature_map, flip_signs(flip_sel))
    out = apply_output_stuck(out, stuck_sel, signs, rail)
    np.testing.assert_array_equal(out[:, stuck_sel],
                                  np.tile(signs[stuck_sel] * rail, (batch, 1)))
