"""Low-level tensor operations for the numpy NN engine.

All image tensors use the NHWC layout ``(batch, height, width, channels)``,
matching the TensorFlow convention the paper's stack (TF 2.8 + Larq) uses.
Convolutions are implemented with im2col + GEMM, which is both the fastest
pure-numpy formulation and the one that maps one-to-one onto the XNOR
operation stream scheduled onto crossbars (each GEMM multiply-accumulate
term is one XNOR op in the binary domain).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "conv_output_size",
    "same_padding",
    "pad_nhwc",
    "im2col",
    "col2im",
    "conv2d",
    "conv2d_backward",
    "maxpool2d",
    "maxpool2d_backward",
    "avgpool2d",
    "avgpool2d_backward",
    "sign_bits",
    "bipolar_sign",
]


def conv_output_size(size: int, kernel: int, stride: int, pad_total: int) -> int:
    """Spatial output size of a convolution along one axis."""
    return (size + pad_total - kernel) // stride + 1


def same_padding(size: int, kernel: int, stride: int) -> tuple[int, int]:
    """TF-style SAME padding (before, after) for one spatial axis."""
    out_size = -(-size // stride)  # ceil division
    pad_total = max((out_size - 1) * stride + kernel - size, 0)
    before = pad_total // 2
    return before, pad_total - before


def pad_nhwc(x: np.ndarray, pad_h: tuple[int, int], pad_w: tuple[int, int],
             value: float = 0.0) -> np.ndarray:
    """Zero-pad the spatial axes of an NHWC tensor."""
    if pad_h == (0, 0) and pad_w == (0, 0):
        return x
    return np.pad(x, ((0, 0), pad_h, pad_w, (0, 0)), constant_values=value)


def _resolve_padding(height: int, width: int, kh: int, kw: int,
                     stride: int, padding: str) -> tuple[tuple[int, int], tuple[int, int]]:
    if padding == "valid":
        return (0, 0), (0, 0)
    if padding == "same":
        return same_padding(height, kh, stride), same_padding(width, kw, stride)
    raise ValueError(f"unknown padding mode {padding!r}; use 'valid' or 'same'")


def im2col(x: np.ndarray, kh: int, kw: int, stride: int = 1,
           padding: str = "valid") -> tuple[np.ndarray, tuple[int, int]]:
    """Extract convolution patches from an NHWC tensor.

    Returns ``(cols, (oh, ow))`` where ``cols`` has shape
    ``(n * oh * ow, kh * kw * c)``.  Column ordering is (kh, kw, c), i.e. the
    channel index varies fastest — the same ordering ``conv2d`` expects for
    its ``(kh, kw, c_in, c_out)`` kernels.
    """
    n, h, w, c = x.shape
    pad_h, pad_w = _resolve_padding(h, w, kh, kw, stride, padding)
    x = pad_nhwc(x, pad_h, pad_w)
    ph, pw = x.shape[1], x.shape[2]
    oh = conv_output_size(h, kh, stride, sum(pad_h))
    ow = conv_output_size(w, kw, stride, sum(pad_w))
    # windows: (n, ph-kh+1, pw-kw+1, c, kh, kw)
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]
    # -> (n, oh, ow, kh, kw, c)
    windows = windows.transpose(0, 1, 2, 4, 5, 3)
    cols = np.ascontiguousarray(windows).reshape(n * oh * ow, kh * kw * c)
    return cols, (oh, ow)


def col2im(cols: np.ndarray, x_shape: tuple[int, int, int, int], kh: int, kw: int,
           stride: int = 1, padding: str = "valid") -> np.ndarray:
    """Scatter-add patch gradients back to an NHWC tensor (inverse of im2col)."""
    n, h, w, c = x_shape
    pad_h, pad_w = _resolve_padding(h, w, kh, kw, stride, padding)
    ph = h + sum(pad_h)
    pw = w + sum(pad_w)
    oh = conv_output_size(h, kh, stride, sum(pad_h))
    ow = conv_output_size(w, kw, stride, sum(pad_w))
    patches = cols.reshape(n, oh, ow, kh, kw, c)
    out = np.zeros((n, ph, pw, c), dtype=cols.dtype)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            out[:, i:i_max:stride, j:j_max:stride, :] += patches[:, :, :, i, j, :]
    return out[:, pad_h[0]:ph - pad_h[1], pad_w[0]:pw - pad_w[1], :]


def conv2d(x: np.ndarray, kernel: np.ndarray, stride: int = 1,
           padding: str = "valid") -> np.ndarray:
    """2-D convolution (cross-correlation, TF semantics) of NHWC input.

    ``kernel`` has shape ``(kh, kw, c_in, c_out)``.
    """
    kh, kw, c_in, c_out = kernel.shape
    if x.shape[3] != c_in:
        raise ValueError(f"input channels {x.shape[3]} != kernel channels {c_in}")
    cols, (oh, ow) = im2col(x, kh, kw, stride, padding)
    out = cols @ kernel.reshape(kh * kw * c_in, c_out)
    return out.reshape(x.shape[0], oh, ow, c_out)


def conv2d_backward(dout: np.ndarray, x: np.ndarray, kernel: np.ndarray,
                    stride: int = 1, padding: str = "valid"
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``conv2d`` w.r.t. input and kernel.

    Returns ``(dx, dkernel)``.
    """
    kh, kw, c_in, c_out = kernel.shape
    n, oh, ow, _ = dout.shape
    cols, _ = im2col(x, kh, kw, stride, padding)
    dout_flat = dout.reshape(n * oh * ow, c_out)
    dkernel = (cols.T @ dout_flat).reshape(kernel.shape)
    dcols = dout_flat @ kernel.reshape(kh * kw * c_in, c_out).T
    dx = col2im(dcols, x.shape, kh, kw, stride, padding)
    return dx, dkernel


def _pool_view(x: np.ndarray, size: int) -> np.ndarray:
    """Reshape NHWC into non-overlapping (size x size) pooling windows."""
    n, h, w, c = x.shape
    if h % size or w % size:
        raise ValueError(
            f"pooling size {size} must divide spatial dims {(h, w)}; "
            "pad the input first")
    return x.reshape(n, h // size, size, w // size, size, c)


def maxpool2d(x: np.ndarray, size: int = 2,
              with_mask: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Non-overlapping max pooling.  Returns ``(out, argmax_mask)``.

    The window maximum is the ``np.maximum`` of the ``size**2`` strided
    slices, one per window offset: max is exact, so the values equal a 6-D
    ``view.max(axis=(2, 4))`` reduction's (NaN included; the sign of a
    zero may differ), several times faster with channels last.

    The mask has the input's shape, with ones at the positions that won the
    max (ties broken toward the first occurrence), and is consumed by
    :func:`maxpool2d_backward`.  Building it costs more than the pooling
    itself, so inference passes set ``with_mask=False`` and get
    ``(out, None)``.
    """
    view = _pool_view(x, size)
    out = view[:, :, 0, :, 0].copy()
    for i in range(size):
        for j in range(size):
            if i or j:
                np.maximum(out, view[:, :, i, :, j], out=out)
    if not with_mask:
        return out, None
    expanded = out[:, :, None, :, None, :]
    winners = (view == expanded)
    # break ties: keep only the first winner per window
    n, oh, _, ow, _, c = winners.shape
    flat2 = winners.transpose(0, 1, 3, 5, 2, 4).reshape(n, oh, ow, c, size * size)
    first = np.zeros_like(flat2)
    idx = flat2.argmax(axis=-1)
    np.put_along_axis(first, idx[..., None], 1, axis=-1)
    mask = first.reshape(n, oh, ow, c, size, size).transpose(0, 1, 4, 2, 5, 3)
    mask = mask.reshape(x.shape)
    return out, mask.astype(x.dtype)


def sign_bits(x: np.ndarray) -> np.ndarray:
    """The boolean map ``x >= 0`` (sign(0) = +1, the Larq convention;
    NaN is False).  A boolean map is its own sign and comes back as it
    is: ``sign_bits(x >= 0)`` equals ``sign_bits(x)``, where ``bool >=
    0`` would be True everywhere."""
    return x if x.dtype == np.bool_ else x >= 0


def bipolar_sign(x: np.ndarray) -> np.ndarray:
    """Bipolar sign as float32: +1 where :func:`sign_bits` is set, -1
    elsewhere, NaN included.  One comparison pass (none for a boolean
    map) and two in-place passes; no float64 temporary."""
    out = sign_bits(x).astype(np.float32)
    out *= 2
    out -= 1
    return out


def maxpool2d_backward(dout: np.ndarray, mask: np.ndarray, size: int = 2) -> np.ndarray:
    """Route pooled gradients back to the max positions recorded in ``mask``."""
    upsampled = np.repeat(np.repeat(dout, size, axis=1), size, axis=2)
    return upsampled * mask


def avgpool2d(x: np.ndarray, size: int = 2) -> np.ndarray:
    """Non-overlapping average pooling."""
    return _pool_view(x, size).mean(axis=(2, 4))


def avgpool2d_backward(dout: np.ndarray, size: int = 2) -> np.ndarray:
    """Gradient of average pooling: spread evenly over each window."""
    upsampled = np.repeat(np.repeat(dout, size, axis=1), size, axis=2)
    return upsampled / (size * size)
