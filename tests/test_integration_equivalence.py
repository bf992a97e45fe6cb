"""Cross-level verification: FLIM fast path vs device-level simulation.

The paper verifies FLIM two ways: fault-free inference against vanilla
Larq/TensorFlow, and fault distribution/mapping against X-Fault.  These
tests reproduce both contracts on small models:

* with zero faults, FLIM == vanilla == device level, bit-exactly;
* with faults, FLIM's PRODUCT semantics must match the device-level
  simulator op-for-op (same schedule, same corrupted products).
"""

import numpy as np
import pytest

from repro import nn
from repro.binary import QuantConv2D, QuantDense
from repro.core import FaultInjector, FaultSpec, Semantics
from repro.core.generator import FaultGenerator
from repro.core.masks import LayerMasks
from repro.lim import CrossbarConfig, XFaultSimulator, ideal_device_params

ROWS, COLS = 6, 3


def one_layer_conv_model(seed=0, padding="valid"):
    model = nn.Sequential([
        QuantConv2D(4, 3, padding=padding, input_quantizer="ste_sign",
                    kernel_quantizer="ste_sign"),
    ], name="one_conv")
    model.build((5, 5, 2), seed=seed)
    return model


def one_layer_dense_model(seed=0):
    model = nn.Sequential([
        QuantDense(5, input_quantizer="ste_sign", kernel_quantizer="ste_sign"),
    ], name="one_dense")
    model.build((14,), seed=seed)
    return model


def device_sim(model, gate="magic"):
    return XFaultSimulator(model, CrossbarConfig(
        rows=ROWS, cols=COLS, gate_family=gate, device=ideal_device_params()))


def empty_masks():
    return LayerMasks(rows=ROWS, cols=COLS)


@pytest.mark.parametrize("make_model", [one_layer_conv_model, one_layer_dense_model])
def test_zero_faults_three_way_equivalence(rng, make_model):
    model = make_model()
    shape = (3,) + tuple(model.input_shape)
    x = rng.standard_normal(shape).astype(np.float32)
    vanilla = model.predict(x)
    sim = device_sim(model)
    np.testing.assert_array_equal(sim.run(x), vanilla)
    generator = FaultGenerator(FaultSpec.bitflip(0.0), rows=ROWS, cols=COLS)
    with FaultInjector().injecting(model, generator.generate(model)):
        np.testing.assert_array_equal(model.predict(x), vanilla)


@pytest.mark.parametrize("make_model,batch", [
    (one_layer_conv_model, 1),
    (one_layer_dense_model, 2),
])
def test_static_bitflip_product_level_matches_device(rng, make_model, batch):
    """A transient output flip on gate (r, c) corrupts the same products."""
    model = make_model()
    layer = model.layers[0]
    shape = (batch,) + tuple(model.input_shape)
    x = rng.standard_normal(shape).astype(np.float32)

    faulty_cells = [(1, 0), (4, 2)]
    sim = device_sim(model)
    for r, c in faulty_cells:
        sim.crossbar_for(layer).inject_bitflip(r, c, period=0)
    device_out = sim.run(x)

    masks = empty_masks()
    for r, c in faulty_cells:
        masks.flip_mask[r, c] = True
    masks.flip_semantics = "product"
    with FaultInjector().injecting(model, {layer.name: masks}):
        flim_out = model.predict(x)
    np.testing.assert_array_equal(flim_out, device_out)


def test_same_padding_bitflip_matches_device(rng):
    """Padding ops are never scheduled: both levels must agree on that."""
    model = one_layer_conv_model(padding="same")
    layer = model.layers[0]
    x = rng.standard_normal((1, 5, 5, 2)).astype(np.float32)
    sim = device_sim(model)
    sim.crossbar_for(layer).inject_bitflip(0, 0, period=0)
    device_out = sim.run(x)

    masks = empty_masks()
    masks.flip_mask[0, 0] = True
    masks.flip_semantics = "product"
    with FaultInjector().injecting(model, {layer.name: masks}):
        flim_out = model.predict(x)
    np.testing.assert_array_equal(flim_out, device_out)


@pytest.mark.parametrize("period", [2, 3])
def test_dynamic_bitflip_matches_device(rng, period):
    """Period-n faults must fire on the same occurrences at both levels."""
    model = one_layer_dense_model()
    layer = model.layers[0]
    x = rng.standard_normal((1, 14)).astype(np.float32)
    sim = device_sim(model)
    sim.crossbar_for(layer).inject_bitflip(2, 1, period=period)
    device_out = sim.run(x)

    masks = empty_masks()
    masks.flip_mask[2, 1] = True
    masks.flip_period = period
    masks.flip_semantics = "product"
    with FaultInjector().injecting(model, {layer.name: masks}):
        flim_out = model.predict(x)
    np.testing.assert_array_equal(flim_out, device_out)


@pytest.mark.parametrize("stuck_value", [0, 1])
def test_stuck_weight_product_level_matches_device(rng, stuck_value):
    """A frozen weight (complementary-pair storage) == WEIGHT-level stuck-at."""
    model = one_layer_dense_model()
    layer = model.layers[0]
    x = rng.standard_normal((2, 14)).astype(np.float32)
    cell = (3, 2)
    sim = device_sim(model, gate="magic")
    sim.crossbar_for(layer).inject_stuck_weight(*cell, stuck_value=stuck_value)
    device_out = sim.run(x)

    masks = empty_masks()
    masks.stuck_mask[cell] = True
    masks.stuck_values[cell] = stuck_value
    masks.stuck_semantics = "weight"
    with FaultInjector().injecting(model, {layer.name: masks}):
        flim_out = model.predict(x)
    np.testing.assert_array_equal(flim_out, device_out)


def test_stuck_gate_output_matches_product_stuck(rng):
    """A stuck OUT cell forces every product on the gate to the stuck level."""
    model = one_layer_dense_model()
    layer = model.layers[0]
    x = rng.standard_normal((2, 14)).astype(np.float32)
    cell = (0, 1)
    sim = device_sim(model, gate="imply")
    sim.crossbar_for(layer).inject_stuck_gate(*cell, stuck_value=1)
    device_out = sim.run(x)

    masks = empty_masks()
    masks.stuck_mask[cell] = True
    masks.stuck_values[cell] = 1
    masks.stuck_semantics = "product"
    with FaultInjector().injecting(model, {layer.name: masks}):
        flim_out = model.predict(x)
    np.testing.assert_array_equal(flim_out, device_out)


@pytest.mark.parametrize("make_model", [one_layer_conv_model, one_layer_dense_model])
def test_packed_backend_matches_float_fault_free(rng, make_model):
    """The packed XNOR/popcount backend is bit-identical to the float GEMM."""
    model = make_model()
    x = rng.standard_normal((3,) + tuple(model.input_shape)).astype(np.float32)
    reference = model.predict(x)
    model.set_execution_backend("packed")
    np.testing.assert_array_equal(model.predict(x), reference)
    model.set_execution_backend("float")


@pytest.mark.parametrize("make_model", [one_layer_conv_model, one_layer_dense_model])
@pytest.mark.parametrize("spec", [
    FaultSpec.bitflip(0.3),
    FaultSpec.stuck_at(0.3),
    FaultSpec.stuck_at(0.3, semantics=Semantics.WEIGHT),
])
def test_packed_backend_matches_float_under_faults(rng, make_model, spec):
    """Fault hooks compose with the packed path: identical corrupted maps."""
    model = make_model()
    x = rng.standard_normal((2,) + tuple(model.input_shape)).astype(np.float32)
    generator = FaultGenerator(spec, rows=ROWS, cols=COLS, seed=3)
    plan = generator.generate(model)
    with FaultInjector().injecting(model, plan):
        float_out = model.predict(x)
    model.set_execution_backend("packed")
    with FaultInjector().injecting(model, plan):
        packed_out = model.predict(x)
    model.set_execution_backend("float")
    np.testing.assert_array_equal(packed_out, float_out)


def test_packed_backend_falls_back_for_product_and_same_padding(rng):
    """Semantics the packed path cannot express run the float path — and
    still produce identical results with the backend switched on."""
    model = one_layer_conv_model(padding="same")
    layer = model.layers[0]
    x = rng.standard_normal((2, 5, 5, 2)).astype(np.float32)
    masks = empty_masks()
    masks.flip_mask[1, 0] = True
    masks.flip_semantics = "product"
    with FaultInjector().injecting(model, {layer.name: masks}):
        float_out = model.predict(x)
    model.set_execution_backend("packed")
    with FaultInjector().injecting(model, {layer.name: masks}):
        packed_out = model.predict(x)
    model.set_execution_backend("float")
    np.testing.assert_array_equal(packed_out, float_out)


def test_serial_and_shared_memory_sweeps_bit_identical(rng):
    """Same seeds -> bit-identical SweepResult across executors (§IV)."""
    from repro.core import FaultCampaign

    model = one_layer_dense_model()
    x = rng.standard_normal((64, 14)).astype(np.float32)
    y = rng.integers(0, 5, size=64)
    kwargs = dict(xs=[0.0, 0.2, 0.5], repeats=3, seed=9)
    serial = FaultCampaign(model, x, y, rows=ROWS, cols=COLS,
                           executor="serial").run(FaultSpec.bitflip, **kwargs)
    with FaultCampaign(model, x, y, rows=ROWS, cols=COLS,
                       executor="shared_memory", n_jobs=2) as campaign:
        parallel = campaign.run(FaultSpec.bitflip, **kwargs)
    np.testing.assert_array_equal(serial.accuracies, parallel.accuracies)
    assert serial.baseline == parallel.baseline


def test_output_level_abstraction_diverges_but_correlates(rng):
    """OUTPUT semantics is an abstraction: not bit-equal to the device, but
    it must corrupt the same layer and keep outputs within valid bounds."""
    model = one_layer_dense_model()
    layer = model.layers[0]
    x = rng.standard_normal((4, 14)).astype(np.float32)
    clean = model.predict(x)
    generator = FaultGenerator(FaultSpec.bitflip(0.3), rows=ROWS, cols=COLS, seed=1)
    with FaultInjector().injecting(model, generator.generate(model)):
        fast = model.predict(x)
    assert not np.array_equal(fast, clean)
    assert np.abs(fast).max() <= layer.reduction_length()


def test_scenario_grid_bit_identical_across_executors_and_backends(rng):
    """A compiled scenario is engine cargo: same seed -> bit-identical
    trajectories for shared_memory/packed vs serial/float (PR 4)."""
    from repro.scenarios import (Episode, FaultClause, Scenario, Timeline,
                                 run_scenario)

    scenario = Scenario(
        name="equivalence-story",
        timeline=Timeline(ages=(0.0, 5e7, 1.2e8)),
        clauses=(FaultClause(kind="stuck_at", rate="lifetime-stuck",
                             spatial="clustered", cluster_size=3),),
        episodes=(Episode(name="storm", duty=0.2, clauses=(
            FaultClause(kind="bitflip", rate=0.2, period=2),)),))
    model = one_layer_dense_model()
    x = rng.standard_normal((64, 14)).astype(np.float32)
    y = rng.integers(0, 5, size=64)
    kwargs = dict(repeats=2, seed=9, rows=ROWS, cols=COLS)
    serial = run_scenario(scenario, model, x, y, **kwargs)
    pooled = run_scenario(scenario, model, x, y, executor="shared_memory",
                          n_jobs=2, backend="packed", **kwargs)
    np.testing.assert_array_equal(serial.accuracies, pooled.accuracies)
    assert serial.baseline == pooled.baseline
