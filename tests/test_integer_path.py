"""The integer path of a popcount map against the float32 path it replaces.

A strictly binary layer's GEMM output is a map of integers with
``|v| <= K``.  Where only max-pooling, ``Flatten`` and BatchNorm stand
between that layer and the next sign (``engine.popcount_output``), the
evaluator memoizes the map as int16, runs the output hooks and
max-pooling on it without upcasting, folds the BatchNorm with integer
thresholds and hands the next quantized layer the boolean sign map.
Each step is checked here, byte for byte, against the float32 path:
``maxpool -> bn.forward -> bipolar_sign -> forward``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.binary import QuantConv2D, QuantDense
from repro.core import FaultInjector, FaultSpec
from repro.core.engine import CampaignEvaluator, SignFold, sign_fold
from repro.core.generator import FaultGenerator
from repro.core.semantics import (apply_output_flips, apply_output_stuck,
                                  flip_signs)
from repro.models.blocks import ResidualBinaryBlock
from repro.nn.ops import bipolar_sign


def _batchnorm(rng, channels: int, k: int) -> nn.BatchNorm:
    """A BatchNorm whose thresholds fall inside ``[-k, k]``, gammas of
    either sign, and about one channel in five that always or never
    passes (a threshold at ``±inf``)."""
    bn = nn.BatchNorm()
    bn.build((channels,), rng)
    gamma = rng.choice([-1.0, 1.0], channels) * 10 ** rng.uniform(-3, 2,
                                                                 channels)
    beta = rng.standard_normal(channels) * 10 ** rng.uniform(-3, 1, channels)
    edge = rng.random(channels) < 0.2
    gamma[edge] = np.copysign(1e-4, gamma[edge])
    beta[edge] = rng.choice([-3e38, 3e38], int(edge.sum()))
    bn.params["gamma"][...] = gamma
    bn.params["beta"][...] = beta
    bn.running_mean[...] = rng.uniform(-k, k, channels)
    bn.running_var[...] = 10 ** rng.uniform(-2, 2, channels) * k
    return bn


def _popcounts(rng, shape, k: int, fold: SignFold) -> np.ndarray:
    """int16 values in ``[-k, k]``, half of them within two of their
    channel's threshold."""
    values = rng.integers(-k, k + 1, shape)
    own = fold.thresholds if fold.negate is None else (fold.thresholds
                                                      * fold.negate)
    near = np.clip(np.nan_to_num(own, posinf=k, neginf=-k), -k, k)
    near = np.round(near).astype(np.int64) + rng.integers(-2, 3, shape)
    values = np.where(rng.random(shape) < 0.5, np.clip(near, -k, k), values)
    return values.astype(np.int16)


def _next_layer(kind: str, quantizer: str, map_shape, backend: str):
    """The sign-quantized layer after the fold, built for its input."""
    if kind == "conv":
        size = min(map_shape[1:3])
        layer = QuantConv2D(3, size, input_quantizer=quantizer,
                            kernel_quantizer="ste_sign")
        layer.build(map_shape[1:], np.random.default_rng(0))
    else:
        layer = QuantDense(4, input_quantizer=quantizer,
                           kernel_quantizer="ste_sign")
        layer.build((int(np.prod(map_shape[1:])),), np.random.default_rng(0))
    layer.execution_backend = backend
    return layer


def _feed(layer, x: np.ndarray) -> np.ndarray:
    """``layer.forward`` on ``x``, flattened first for a dense layer."""
    if isinstance(layer, QuantDense):
        x = x.reshape(len(x), -1)
    return layer.forward(x)


@given(backend=st.sampled_from(["float", "packed"]),
       kind=st.sampled_from(["conv", "dense", "dense-only"]),
       quantizer=st.sampled_from(["ste_sign", "approx_sign"]),
       k=st.sampled_from([1, 2, 9, 25, 144, 4608, 2 ** 15 - 1]),
       channels=st.integers(1, 6), pool=st.booleans(),
       flips=st.booleans(), stuck=st.booleans(), bias=st.booleans(),
       seed=st.integers(0, 2 ** 31 - 1))
@settings(max_examples=120, deadline=None)
def test_integer_path_equals_the_float32_path(backend, kind, quantizer, k,
                                              channels, pool, flips, stuck,
                                              bias, seed):
    rng = np.random.default_rng(seed)
    bn = _batchnorm(rng, channels, k)
    fold = sign_fold(bn)
    assert fold is not None
    if kind == "dense-only":  # a dense layer's (batch, units) map
        shape, pool = (5, channels), False
    else:
        shape = (5, 4, 6, channels)
    ints = _popcounts(rng, shape, k, fold)
    floats = ints.astype(np.float32)
    per_image = int(np.prod(shape[1:]))
    signs = flip_signs(rng.random(per_image) < 0.3)
    rails = rng.random(per_image) < 0.2
    polarity = rng.choice([-1.0, 1.0], per_image).astype(np.float32)
    offset = rng.standard_normal(channels).astype(np.float32) * k
    pooling = nn.MaxPool2D(2)

    def tail(m):
        """The split layer's hook and bias, then the layers up to the
        fold."""
        if flips:
            m = apply_output_flips(m, signs)
        if stuck:
            m = apply_output_stuck(m, rails, polarity, float(k))
        if bias:
            m = m + offset
        return pooling.forward(m) if pool else m

    hooked = tail(ints)
    # no float64 and no float32 before the bias: hooks and pooling keep
    # the popcounts' dtype
    assert hooked.dtype == (np.float32 if bias else np.int16)
    with np.errstate(over="ignore"):
        reference = tail(floats)
        want = bipolar_sign(bn.forward(reference))
    bits = fold.bits(hooked)
    assert bits.dtype == np.bool_
    np.testing.assert_array_equal(bits, want > 0)
    got = fold(hooked)
    assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    # the next layer takes the boolean map as its sign, on either backend,
    # and computes what the float backend computes on the ±1 map
    layer = _next_layer("dense" if kind != "conv" else "conv", quantizer,
                        want.shape, backend)
    expected = _next_layer("dense" if kind != "conv" else "conv", quantizer,
                           want.shape, "float")
    produced, oracle = _feed(layer, bits), _feed(expected, want)
    assert produced.dtype == oracle.dtype
    assert produced.tobytes() == oracle.tobytes()

    # thresholds off the key line (NaN: never) and at ±inf, which no
    # BatchNorm search returns for every channel: the float32 fold is the
    # oracle there
    special = fold.thresholds.copy()
    picked = rng.random(channels) < 0.5
    special[picked] = rng.choice([np.nan, np.inf, -np.inf], int(picked.sum()))
    odd = SignFold(bn, special, fold.negate)
    want_odd = odd(reference)
    assert odd(hooked).tobytes() == want_odd.tobytes()
    assert (_feed(layer, odd.bits(hooked)).tobytes()
            == _feed(expected, want_odd).tobytes())


def test_a_boolean_map_is_its_own_sign():
    """``bool >= 0`` is True everywhere: a layer that thresholded a
    boolean map again would see only +1."""
    x = np.random.default_rng(0).standard_normal((4, 5, 5, 3)).astype(
        np.float32)
    for backend in ("float", "packed"):
        layer = _next_layer("conv", "ste_sign", x.shape, backend)
        assert (layer.forward(x >= 0).tobytes()
                == layer.forward(x).tobytes())
        assert (layer.forward(x >= 0).tobytes()
                != layer.forward(np.ones_like(x)).tobytes())


# -- which split layers keep int16 entries ------------------------------------

def _quant_conv(padding="valid"):
    return QuantConv2D(4, 3, padding=padding, input_quantizer="ste_sign",
                       kernel_quantizer="ste_sign")


def _head():
    return [nn.BatchNorm(), nn.Flatten(),
            QuantDense(3, input_quantizer="ste_sign",
                       kernel_quantizer="ste_sign")]


MODELS = {
    "maxpool": (lambda: [_quant_conv(), nn.MaxPool2D(2), *_head()],
                np.int16),
    "avgpool": (lambda: [_quant_conv(), nn.AvgPool2D(2), *_head()],
                np.float32),
    "residual": (lambda: [ResidualBinaryBlock(2), nn.MaxPool2D(2),
                          *_head()], np.float32),
}


@pytest.mark.parametrize("backend", ["float", "packed"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_only_a_popcount_map_before_a_sign_is_narrowed(name, backend):
    """A split conv that feeds max-pooling, then a BatchNorm and a sign,
    keeps int16 entries; one that feeds an ``AvgPool2D``, and the conv
    inside a ``ResidualBinaryBlock`` at the split, keep float32.  Every
    cell scores what ``Sequential.evaluate`` scores."""
    make, dtype = MODELS[name]
    model = nn.Sequential(make()).build((6, 6, 2), seed=0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((40, 6, 6, 2)).astype(np.float32)
    y = rng.integers(0, 3, 40)
    evaluator = CampaignEvaluator(model, x, y, batch_size=16,
                                  backend=backend)
    evaluator.baseline()
    entries = [rep for _, reps in evaluator._memo.values()
               for (_, tag), rep in reps.items() if tag == "output"]
    assert len(entries) == 3
    assert {rep.dtype for rep in entries} == {np.dtype(dtype)}
    for seed in range(3):
        plan = FaultGenerator(
            [FaultSpec.bitflip(0.2), FaultSpec.stuck_at(0.1)], rows=8,
            cols=4, seed=seed).generate(model)
        accuracy = evaluator.evaluate_plan(plan)
        model.set_execution_backend(backend)
        try:
            with FaultInjector().injecting(model, plan):
                assert accuracy == model.evaluate(x, y, batch_size=16)
        finally:
            model.set_execution_backend("float")
