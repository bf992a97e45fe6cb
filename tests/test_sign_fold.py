"""The evaluator's float-tail rewrites against the code they replace.

* a BatchNorm that feeds a sign is one compare per channel
  (:class:`repro.core.engine.SignFold`), exact against
  ``bipolar_sign(bn.forward(x))`` for every float32 input;
* output flips multiply by a per-plan ±1 vector, byte-identical to
  copying the map and negating the selected elements.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.binary import (ApproxSign, MagnitudeAwareSign, QuantConv2D,
                          QuantDense, Quantizer)
from repro.core import FaultInjector, FaultSpec, Semantics
from repro.core.engine import CampaignEvaluator, sign_fold, sign_folds
from repro.core.generator import FaultGenerator
from repro.core.semantics import apply_output_flips, flip_signs
from repro.experiments.common import get_mnist, trained_lenet
from repro.nn.ops import bipolar_sign

#: float32 values every fold must get right whatever its thresholds
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 3.4e38, -3.4e38,
                     np.finfo(np.float32).max, -np.finfo(np.float32).max,
                     1e-45, -1e-45], dtype=np.float32)


def _random_batchnorm(rng, channels: int) -> nn.BatchNorm:
    bn = nn.BatchNorm()
    bn.build((channels,), rng)
    bn.params["gamma"][...] = (rng.choice([-1.0, 1.0], channels)
                               * 10 ** rng.uniform(-4, 3, channels))
    bn.running_var[...] = 10 ** rng.uniform(-8, 4, channels)
    # means and betas from tiny to near the float32 range
    bn.running_mean[...] = (rng.standard_normal(channels)
                            * 10 ** rng.uniform(-6, 30, channels))
    bn.params["beta"][...] = (rng.standard_normal(channels)
                              * 10 ** rng.uniform(-6, 38, channels))
    return bn


def _thresholds(fold) -> np.ndarray:
    """Each channel's own t_c (the fold keeps -t_c where gamma_c < 0)."""
    if fold.negate is None:
        return fold.thresholds
    return fold.thresholds * fold.negate


def _probes(rng, fold, rows: int = 300) -> np.ndarray:
    """Inputs over ±1e-45..3e38, the specials, and every threshold with
    its three float32 neighbours on either side."""
    channels = len(fold.thresholds)
    spread = (rng.choice([-1.0, 1.0], (rows, channels))
              * 10 ** rng.uniform(-45, 38.5, (rows, channels)))
    near = [_thresholds(fold)]
    with np.errstate(over="ignore"):  # past ±3.4e38 lies ±inf
        spread = spread.astype(np.float32)
        for direction in (np.inf, -np.inf):
            step = near[0]
            for _ in range(3):
                step = np.nextafter(step, np.float32(direction))
                near.append(step)
    return np.vstack([spread,
                      np.repeat(SPECIALS[:, None], channels, axis=1),
                      np.array(near, dtype=np.float32)])


# -- (a) the fold equals BatchNorm then sign ---------------------------------

@given(st.integers(1, 24), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=80, deadline=None)
def test_sign_fold_equals_batchnorm_then_sign(channels, seed):
    """For random statistics, gammas of either sign from 1e-4 to 1e3 and
    variances from 1e-8 to 1e4, the fold gives bipolar_sign(BN(x))
    exactly, on inputs over 83 decades, ±0, ±inf, NaN and ±3.4e38, and
    on each threshold's float32 neighbours."""
    rng = np.random.default_rng(seed)
    bn = _random_batchnorm(rng, channels)
    fold = sign_fold(bn)
    assert fold is not None
    x = _probes(rng, fold)
    with np.errstate(over="ignore"):
        want = bipolar_sign(bn.forward(x))
    got = fold(x)
    assert got.dtype == np.float32
    np.testing.assert_array_equal(got, want)
    # NHWC maps fold per channel like (batch, channels) ones
    images = x[: (len(x) // 4) * 4].reshape(-1, 2, 2, channels)
    with np.errstate(over="ignore"):
        np.testing.assert_array_equal(fold(images),
                                      bipolar_sign(bn.forward(images)))


@pytest.mark.parametrize("gamma,beta,mean", [
    (1e-4, -3e38, 0.0),     # negative up to +inf: t = +inf
    (-1e-4, -3e38, 0.0),    # negative from -inf on: t = -inf
    (1e3, 3e38, 0.0),       # non-negative from -inf on: t = -inf
    (2.0, 0.0, 0.0),        # the root is zero: both zeros pass
    (-2.0, 0.0, -0.0),
    (1.0, 1e-30, 3e38),     # the root beside a mean near the range's end
])
def test_sign_fold_edges(gamma, beta, mean):
    bn = nn.BatchNorm()
    bn.build((1,), np.random.default_rng(0))
    bn.params["gamma"][...] = gamma
    bn.params["beta"][...] = beta
    bn.running_mean[...] = mean
    fold = sign_fold(bn)
    x = _probes(np.random.default_rng(1), fold)
    with np.errstate(over="ignore"):
        np.testing.assert_array_equal(fold(x), bipolar_sign(bn.forward(x)))


def test_sign_fold_leaves_other_dtypes_to_batchnorm():
    """The thresholds are float32 inputs: a float64 map goes through
    ``bn.forward``, whose output the next layer quantizes as before."""
    bn = _random_batchnorm(np.random.default_rng(3), 5)
    x = np.random.default_rng(4).standard_normal((7, 5)) * 1e3
    np.testing.assert_array_equal(sign_fold(bn)(x), bn.forward(x))


# -- (b) the flip multiply equals copy-and-negate ----------------------------

def _copy_and_negate(feature_map, selector):
    """The flip before the ±1 multiply."""
    flat = feature_map.reshape(feature_map.shape[0], -1).copy()
    flat[:, selector] = -flat[:, selector]
    return flat.reshape(feature_map.shape)


@given(st.integers(1, 5), st.lists(st.integers(1, 6), min_size=1,
                                   max_size=3),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_flip_multiply_equals_copy_and_negate(batch, image_shape, seed):
    """Byte for byte, -0.0 and ±inf included, on maps of any rank.  (A
    NaN stays NaN either way, but its sign bit may differ; no GEMM
    result is NaN.)"""
    rng = np.random.default_rng(seed)
    shape = (batch, *image_shape)
    values = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 7.0, -25.0,
                       3.4e38, -1e-45], dtype=np.float32)
    feature_map = np.where(rng.random(shape) < 0.5,
                           rng.choice(values, shape),
                           rng.standard_normal(shape)).astype(np.float32)
    selector = rng.random(int(np.prod(image_shape))) < 0.5
    got = apply_output_flips(feature_map, flip_signs(selector))
    want = _copy_and_negate(feature_map, selector)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, feature_map)


# -- (c) which BatchNorms fold ----------------------------------------------

class _Halve(Quantizer):
    """Not a sign: scales its input."""

    strictly_binary = False

    def quantize(self, x):
        return x / 2


def _dense_chain(*middle, quantizer="ste_sign", last=True):
    layers = [QuantDense(6, input_quantizer="ste_sign",
                         kernel_quantizer="ste_sign"), *middle]
    if last:
        layers.append(QuantDense(3, input_quantizer=quantizer,
                                 kernel_quantizer="ste_sign"))
    return nn.Sequential(layers).build((5,), seed=0)


def _conv_chain(*middle):
    return nn.Sequential([
        QuantConv2D(4, 3, input_quantizer="ste_sign",
                    kernel_quantizer="ste_sign"),
        *middle,
        QuantDense(3, input_quantizer="ste_sign",
                   kernel_quantizer="ste_sign"),
    ]).build((6, 6, 2), seed=0)


@pytest.mark.parametrize("make,folded", [
    (lambda: _dense_chain(nn.BatchNorm()), {1}),
    (lambda: _dense_chain(nn.BatchNorm(), quantizer="approx_sign"), {1}),
    (lambda: _conv_chain(nn.BatchNorm(), nn.Flatten()), {1}),
    (lambda: _dense_chain(nn.BatchNorm(), quantizer=None), set()),
    (lambda: _dense_chain(nn.BatchNorm(), quantizer=MagnitudeAwareSign()),
     set()),
    (lambda: _dense_chain(nn.BatchNorm(), quantizer=_Halve()), set()),
    (lambda: _dense_chain(nn.BatchNorm(), nn.ReLU()), set()),
    (lambda: _dense_chain(nn.BatchNorm(), nn.Sign()), set()),
    (lambda: _conv_chain(nn.BatchNorm(), nn.MaxPool2D(2), nn.Flatten()),
     set()),
    (lambda: _dense_chain(nn.BatchNorm(), last=False), set()),  # argmax
], ids=["ste_sign", "approx_sign", "flatten", "no-quantizer",
        "magnitude-aware", "non-sign", "relu-between", "sign-between",
        "pool-between", "feeds-argmax"])
def test_which_batchnorms_fold(make, folded):
    assert set(sign_folds(make())) == folded


@pytest.mark.parametrize("gamma", [0.0, np.inf, np.nan])
def test_batchnorm_with_a_degenerate_gamma_does_not_fold(gamma):
    model = _dense_chain(nn.BatchNorm())
    model.layers[1].params["gamma"][2] = gamma
    assert sign_folds(model) == {}


def test_subclassed_quantizer_does_not_fold():
    """Only the two sign quantizers' exact types fold: a subclass may
    quantize differently."""
    class Shifted(ApproxSign):
        def quantize(self, x):
            return bipolar_sign(x - 1)

    assert sign_folds(_dense_chain(nn.BatchNorm(),
                                   quantizer=Shifted())) == {}


# -- (d) evaluate_plan on a LeNet with negative gammas -----------------------

@pytest.fixture(scope="module")
def negated_lenet():
    """The trained LeNet with some gammas and some betas of bn1-bn3
    negated (no trained model has a negative gamma)."""
    model = trained_lenet()
    for layer in model.layers:
        if layer.name in ("bn1", "bn2", "bn3"):
            layer.params["gamma"][::2] *= -1
            layer.params["beta"][::3] *= -1
    _, test = get_mnist()
    test = test.subset(300)
    return model, test.x, test.y


PLANS = {
    "flips": FaultSpec.bitflip(0.2),
    "stuck-output": FaultSpec.stuck_at(0.1),
    "stuck-weight": FaultSpec.stuck_at(0.1, semantics=Semantics.WEIGHT),
}


@pytest.mark.parametrize("backend", ["float", "packed"])
@pytest.mark.parametrize("fault", sorted(PLANS))
@pytest.mark.parametrize("layers", [None, ["conv2"], ["dense0"]],
                         ids=["all", "conv2", "dense0"])
def test_evaluate_plan_equals_model_evaluate_with_negative_gammas(
        negated_lenet, backend, fault, layers, monkeypatch):
    """Folded suffixes score exactly what attaching the plan and running
    ``Sequential.evaluate`` (every BatchNorm through ``forward``)
    scores; of the suffix BatchNorms only bn4, which feeds argmax, still
    runs ``forward``."""
    model, x, y = negated_lenet
    evaluator = CampaignEvaluator(model, x, y, backend=backend)
    evaluator.baseline()
    assert sorted(evaluator._folds) == [5, 7, 10]  # bn1, bn2, bn3
    assert all(fold.negate is not None
               for fold in evaluator._folds.values())
    plan = FaultGenerator(PLANS[fault], rows=40, cols=10,
                          seed=7).generate(model, layers=layers)
    evaluator.warm([plan])  # the prefix runs bn1 (and bn2) unfolded
    called = []
    forward = nn.BatchNorm.forward

    def recording(self, *args, **kwargs):
        called.append(self.name)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(nn.BatchNorm, "forward", recording)
    folded = evaluator.evaluate_plan(plan)
    assert set(called) == {"bn4"}
    monkeypatch.undo()
    model.set_execution_backend(backend)
    try:
        with FaultInjector().injecting(model, plan):
            assert folded == model.evaluate(x, y)
    finally:
        model.set_execution_backend("float")


def test_folds_found_by_the_baseline_pass_and_dropped_on_close(
        negated_lenet):
    model, x, y = negated_lenet
    evaluator = CampaignEvaluator(model, x, y)
    assert evaluator._folds is None
    evaluator.baseline()
    assert sorted(evaluator._folds) == [5, 7, 10]
    evaluator.clear_caches()
    assert evaluator._folds is None
