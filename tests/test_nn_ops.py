"""Unit tests for the low-level tensor ops (im2col conv, pooling)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import ops

#: float32 values the exact kernels must treat like their references
SPECIAL_FLOATS = (0.0, -0.0, np.nan, np.inf, -np.inf)


def conv2d_reference(x, kernel, stride=1, padding="valid"):
    """Direct-loop convolution used as an oracle for the im2col path."""
    kh, kw, c_in, c_out = kernel.shape
    n, h, w, _ = x.shape
    if padding == "same":
        ph, pw = ops.same_padding(h, kh, stride), ops.same_padding(w, kw, stride)
        x = np.pad(x, ((0, 0), ph, pw, (0, 0)))
        h, w = x.shape[1], x.shape[2]
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    out = np.zeros((n, oh, ow, c_out), dtype=np.float64)
    for b in range(n):
        for i in range(oh):
            for j in range(ow):
                patch = x[b, i * stride:i * stride + kh, j * stride:j * stride + kw, :]
                for f in range(c_out):
                    out[b, i, j, f] = (patch * kernel[:, :, :, f]).sum()
    return out


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", ["valid", "same"])
@pytest.mark.parametrize("kernel_size", [1, 3, 5])
def test_conv2d_matches_reference(rng, stride, padding, kernel_size):
    x = rng.standard_normal((2, 9, 9, 3)).astype(np.float32)
    kernel = rng.standard_normal((kernel_size, kernel_size, 3, 4)).astype(np.float32)
    got = ops.conv2d(x, kernel, stride, padding)
    want = conv2d_reference(x, kernel, stride, padding)
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)


def test_conv_output_size():
    assert ops.conv_output_size(28, 5, 1, 0) == 24
    assert ops.conv_output_size(28, 5, 1, 4) == 28
    assert ops.conv_output_size(32, 3, 2, 2) == 16


def test_same_padding_keeps_size_stride1(rng):
    x = rng.standard_normal((1, 11, 7, 2)).astype(np.float32)
    kernel = rng.standard_normal((3, 3, 2, 5)).astype(np.float32)
    out = ops.conv2d(x, kernel, stride=1, padding="same")
    assert out.shape == (1, 11, 7, 5)


def test_same_padding_ceil_division(rng):
    x = rng.standard_normal((1, 11, 11, 1)).astype(np.float32)
    kernel = rng.standard_normal((3, 3, 1, 1)).astype(np.float32)
    out = ops.conv2d(x, kernel, stride=2, padding="same")
    assert out.shape == (1, 6, 6, 1)


def test_im2col_col2im_adjoint(rng):
    """<im2col(x), y> == <x, col2im(y)> — the pair must be exact adjoints
    for conv backward to be a true gradient."""
    x = rng.standard_normal((2, 6, 6, 3)).astype(np.float64)
    cols, (oh, ow) = ops.im2col(x, 3, 3, stride=1, padding="valid")
    y = rng.standard_normal(cols.shape)
    lhs = float((cols * y).sum())
    xback = ops.col2im(y, x.shape, 3, 3, stride=1, padding="valid")
    rhs = float((x * xback).sum())
    assert abs(lhs - rhs) < 1e-8


def test_conv2d_backward_numeric(rng):
    from gradcheck import numerical_gradient

    x = rng.standard_normal((2, 5, 5, 2)).astype(np.float64)
    kernel = rng.standard_normal((3, 3, 2, 3)).astype(np.float64)
    probe = rng.standard_normal((2, 3, 3, 3))

    def loss():
        return float((ops.conv2d(x, kernel) * probe).sum())

    dx, dk = ops.conv2d_backward(probe, x, kernel)
    np.testing.assert_allclose(dx, numerical_gradient(loss, x), rtol=1e-4, atol=1e-6)
    np.testing.assert_allclose(dk, numerical_gradient(loss, kernel), rtol=1e-4, atol=1e-6)


def test_maxpool_forward_and_mask(rng):
    x = np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]])  # (1,2,2,1)
    out, mask = ops.maxpool2d(x, 2)
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 4.0
    assert mask.sum() == 1
    assert mask[0, 1, 1, 0] == 1


def test_maxpool_tie_breaking_single_winner():
    x = np.ones((1, 4, 4, 2))
    out, mask = ops.maxpool2d(x, 2)
    assert out.shape == (1, 2, 2, 2)
    # exactly one winner per window per channel even with all-equal values
    assert mask.sum() == 2 * 2 * 2


def test_maxpool_backward_routes_gradient(rng):
    x = rng.standard_normal((2, 4, 4, 3))
    out, mask = ops.maxpool2d(x, 2)
    dout = np.ones_like(out)
    dx = ops.maxpool2d_backward(dout, mask, 2)
    assert dx.shape == x.shape
    assert dx.sum() == out.size  # each window routes exactly its gradient


def test_maxpool_rejects_nondivisible():
    with pytest.raises(ValueError):
        ops.maxpool2d(np.zeros((1, 5, 4, 1)), 2)


@st.composite
def pool_inputs(draw):
    """``(size, x)``: a float32 (specials included) or int16 NHWC batch
    whose spatial dims the pooling size divides."""
    size = draw(st.integers(1, 3))
    n, oh, ow, c = (draw(st.integers(1, 3)) for _ in range(4))
    shape = (n, oh * size, ow * size, c)
    count = int(np.prod(shape))
    if draw(st.booleans()):
        values = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                           st.floats(-8, 8, width=32))
        dtype = np.float32
    else:
        values = st.integers(-2 ** 15, 2 ** 15 - 1)
        dtype = np.int16
    data = draw(st.lists(values, min_size=count, max_size=count))
    return size, np.array(data, dtype=dtype).reshape(shape)


@pytest.mark.parametrize("with_mask", [False, True])
@given(case=pool_inputs())
@settings(max_examples=200, deadline=None)
def test_strided_maxpool_equals_window_reduction(with_mask, case):
    """Pooling (strided slices reduced by ``np.maximum``) gives the 6-D
    window reduction's values; only the sign of a zero may differ, which
    BN -> sign -> argmax cannot see.  The mask marks one position per
    window, holding that window's maximum wherever it is not NaN."""
    size, x = case
    out, mask = ops.maxpool2d(x, size, with_mask=with_mask)
    n, h, w, c = x.shape
    view = x.reshape(n, h // size, size, w // size, size, c)
    want = view.max(axis=(2, 4))
    assert out.dtype == x.dtype and out.flags.writeable
    assert np.array_equal(out, want, equal_nan=True)
    if not with_mask:
        assert mask is None
        return
    won = mask.reshape(view.shape).astype(bool)
    assert (won.sum(axis=(2, 4)) == 1).all()
    picked = np.where(won, view, 0).sum(axis=(2, 4), dtype=x.dtype)
    real = ~np.isnan(want)
    assert np.array_equal(picked[real], want[real])


def test_strided_maxpool_rejects_nondivisible():
    with pytest.raises(ValueError):
        ops.maxpool2d(np.zeros((1, 5, 4, 1)), 2, with_mask=False)


@given(st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS),
                          st.floats(width=32)), min_size=1, max_size=64),
       st.sampled_from([np.float32, np.float64]))
@settings(max_examples=150, deadline=None)
def test_bipolar_sign_equals_where_expression(values, dtype):
    """The one-pass sign equals ``np.where(x >= 0, 1.0, -1.0)`` cast to
    float32, bit for bit: -0.0 maps to +1 and NaN to -1."""
    x = np.array(values, dtype=dtype)
    got = ops.bipolar_sign(x)
    want = np.where(x >= 0, 1.0, -1.0).astype(np.float32)
    assert got.dtype == np.float32
    assert got.tobytes() == want.tobytes()


def test_avgpool_roundtrip(rng):
    x = rng.standard_normal((2, 4, 4, 3))
    out = ops.avgpool2d(x, 2)
    np.testing.assert_allclose(out[0, 0, 0], x[0, :2, :2].mean(axis=(0, 1)))
    dx = ops.avgpool2d_backward(np.ones_like(out), 2)
    np.testing.assert_allclose(dx, np.full_like(x, 0.25))
