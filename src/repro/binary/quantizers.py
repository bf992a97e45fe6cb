"""Quantizers for binarized networks (the Larq-equivalent set).

A quantizer exposes ``quantize(x)`` for the forward pass and
``grad(latent, upstream)`` implementing its straight-through estimator for
the backward pass.  Three families cover every architecture in the paper's
Table II:

* :class:`SteSign` — plain binarization, used by the strictly binarized
  models (BinaryDenseNet*, BinaryResNetE18, BinaryAlexNet, MeliusNet22);
* :class:`ApproxSign` — Bi-Real Net's polynomial STE;
* :class:`MagnitudeAwareSign` — XNOR-Net's per-channel gain, the reason the
  paper notes XNOR-Net "weights are multiplied by an individual gain".
"""

from __future__ import annotations

import numpy as np

from ..nn.ops import bipolar_sign

__all__ = ["Quantizer", "SteSign", "ApproxSign", "MagnitudeAwareSign", "get"]


class Quantizer:
    """Base quantizer interface."""

    #: True when quantize() produces values in {-1, +1} exactly — i.e. the
    #: layer's arithmetic is expressible as XNOR/popcount on a crossbar.
    strictly_binary = True

    def quantize(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad(self, latent: np.ndarray, upstream: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self):
        return type(self).__name__


class SteSign(Quantizer):
    """sign(x) forward, hard-tanh straight-through estimator backward."""

    def __init__(self, clip_value: float = 1.0):
        self.clip_value = clip_value

    def quantize(self, x):
        return bipolar_sign(x)

    def grad(self, latent, upstream):
        return upstream * (np.abs(latent) <= self.clip_value)


class ApproxSign(Quantizer):
    """Bi-Real Net's ApproxSign: sign forward, piecewise-polynomial STE.

    d/dx ≈ 2 + 2x on [-1, 0) and 2 - 2x on [0, 1), zero elsewhere.
    """

    def quantize(self, x):
        return bipolar_sign(x)

    def grad(self, latent, upstream):
        inside = np.abs(latent) < 1.0
        slope = (2.0 - 2.0 * np.abs(latent)) * inside
        return upstream * slope


class MagnitudeAwareSign(Quantizer):
    """XNOR-Net weight quantizer: sign(w) scaled by a per-channel gain.

    The gain is the mean absolute latent weight over every axis except the
    last (output-channel) axis.  The output is *not* strictly binary, which
    is why the paper notes FLIM must "slightly adjust the bit-flip mask" for
    XNOR-Net — the crossbar computes the sign part, the gain lives in CMOS.
    """

    strictly_binary = False

    def quantize(self, x):
        axes = tuple(range(x.ndim - 1))
        alpha = np.abs(x).mean(axis=axes, keepdims=True)
        self._last_alpha = alpha
        return bipolar_sign(x) * alpha.astype(np.float32)

    def grad(self, latent, upstream):
        # The gain is treated as a constant during backprop (Larq behaviour);
        # the binarization itself uses the hard-tanh STE.
        axes = tuple(range(latent.ndim - 1))
        alpha = np.abs(latent).mean(axis=axes, keepdims=True)
        return upstream * alpha * (np.abs(latent) <= 1.0)

    def split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(binary_part, gain)`` with ``quantize(x) == binary * gain``.

        The fault injector corrupts only the binary part (it is what lives
        on the crossbar) and re-applies the CMOS gain afterwards.
        """
        axes = tuple(range(x.ndim - 1))
        alpha = np.abs(x).mean(axis=axes, keepdims=True).astype(np.float32)
        return bipolar_sign(x), alpha


_REGISTRY = {
    "ste_sign": SteSign,
    "approx_sign": ApproxSign,
    "magnitude_aware_sign": MagnitudeAwareSign,
}


def get(name_or_quantizer) -> Quantizer | None:
    """Resolve a quantizer by name; pass instances and None through."""
    if name_or_quantizer is None or isinstance(name_or_quantizer, Quantizer):
        return name_or_quantizer
    try:
        return _REGISTRY[name_or_quantizer]()
    except KeyError:
        raise ValueError(
            f"unknown quantizer {name_or_quantizer!r}; known: {sorted(_REGISTRY)}"
        ) from None
