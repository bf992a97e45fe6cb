"""Neural-network layers for the numpy engine.

The engine mirrors the small slice of Keras that the paper's stack relies
on: layers are stateful objects built lazily on the first forward pass,
expose ``params`` / ``grads`` dictionaries for the optimizers, and cache
whatever the backward pass needs.  Composite layers (residual blocks etc.)
override :meth:`Layer.sub_layers` so models can discover every parameter by
recursive traversal.
"""

from __future__ import annotations

import numpy as np

from . import initializers, ops

__all__ = [
    "Layer",
    "Conv2D",
    "Dense",
    "BatchNorm",
    "ReLU",
    "Sign",
    "MaxPool2D",
    "AvgPool2D",
    "GlobalAvgPool2D",
    "Flatten",
    "ChannelScale",
]


class Layer:
    """Base class for all layers.

    Sub-classes implement :meth:`build` (parameter creation from the input
    shape), :meth:`forward` and :meth:`backward`.  ``params`` and ``grads``
    are dictionaries keyed by parameter name; optimizers update them in
    place.
    """

    _COUNTER: dict[str, int] = {}

    def __init__(self, name: str | None = None):
        if name is None:
            base = type(self).__name__.lower()
            index = Layer._COUNTER.get(base, 0)
            Layer._COUNTER[base] = index + 1
            name = f"{base}_{index}"
        self.name = name
        self.built = False
        self.trainable = True
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    # -- lifecycle -----------------------------------------------------
    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        """Create parameters.  ``input_shape`` excludes the batch axis."""
        self.built = True

    def compute_output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Shape (excluding batch) produced for the given input shape."""
        return input_shape

    def sub_layers(self) -> list["Layer"]:
        """Child layers of composite layers (empty for leaves)."""
        return []

    # -- computation ---------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)

    def num_params(self) -> int:
        own = sum(int(p.size) for p in self.params.values())
        return own + sum(child.num_params() for child in self.sub_layers())

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class Conv2D(Layer):
    """2-D convolution over NHWC tensors with a ``(kh, kw, c_in, c_out)`` kernel."""

    def __init__(self, filters: int, kernel_size: int, stride: int = 1,
                 padding: str = "valid", use_bias: bool = True,
                 kernel_initializer="glorot_uniform", name: str | None = None):
        super().__init__(name)
        self.filters = filters
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.use_bias = use_bias
        self.kernel_initializer = initializers.get(kernel_initializer)
        self._cache: tuple | None = None

    def build(self, input_shape, rng):
        _, _, c_in = input_shape
        shape = (self.kernel_size, self.kernel_size, c_in, self.filters)
        self.params["kernel"] = self.kernel_initializer(shape, rng)
        self.grads["kernel"] = np.zeros_like(self.params["kernel"])
        if self.use_bias:
            self.params["bias"] = np.zeros(self.filters, dtype=np.float32)
            self.grads["bias"] = np.zeros_like(self.params["bias"])
        super().build(input_shape, rng)

    def compute_output_shape(self, input_shape):
        h, w, _ = input_shape
        k, s = self.kernel_size, self.stride
        if self.padding == "same":
            oh, ow = -(-h // s), -(-w // s)
        else:
            oh = ops.conv_output_size(h, k, s, 0)
            ow = ops.conv_output_size(w, k, s, 0)
        return (oh, ow, self.filters)

    def forward(self, x, training=False):
        out = ops.conv2d(x, self.params["kernel"], self.stride, self.padding)
        if self.use_bias:
            out = out + self.params["bias"]
        if training:
            self._cache = (x,)
        return out

    def backward(self, dout):
        (x,) = self._cache
        dx, dkernel = ops.conv2d_backward(
            dout, x, self.params["kernel"], self.stride, self.padding)
        self.grads["kernel"][...] = dkernel
        if self.use_bias:
            self.grads["bias"][...] = dout.sum(axis=(0, 1, 2))
        return dx


class Dense(Layer):
    """Fully connected layer over ``(batch, features)`` tensors."""

    def __init__(self, units: int, use_bias: bool = True,
                 kernel_initializer="glorot_uniform", name: str | None = None):
        super().__init__(name)
        self.units = units
        self.use_bias = use_bias
        self.kernel_initializer = initializers.get(kernel_initializer)
        self._cache: tuple | None = None

    def build(self, input_shape, rng):
        (features,) = input_shape
        self.params["kernel"] = self.kernel_initializer((features, self.units), rng)
        self.grads["kernel"] = np.zeros_like(self.params["kernel"])
        if self.use_bias:
            self.params["bias"] = np.zeros(self.units, dtype=np.float32)
            self.grads["bias"] = np.zeros_like(self.params["bias"])
        super().build(input_shape, rng)

    def compute_output_shape(self, input_shape):
        return (self.units,)

    def forward(self, x, training=False):
        out = x @ self.params["kernel"]
        if self.use_bias:
            out = out + self.params["bias"]
        if training:
            self._cache = (x,)
        return out

    def backward(self, dout):
        (x,) = self._cache
        self.grads["kernel"][...] = x.T @ dout
        if self.use_bias:
            self.grads["bias"][...] = dout.sum(axis=0)
        return dout @ self.params["kernel"].T


class BatchNorm(Layer):
    """Batch normalization over the channel (last) axis.

    Works on both NHWC and NC tensors.  In the LIM mapping this is one of
    the non-binary operations the paper keeps in CMOS.
    """

    def __init__(self, momentum: float = 0.9, epsilon: float = 1e-5,
                 name: str | None = None):
        super().__init__(name)
        self.momentum = momentum
        self.epsilon = epsilon
        self._cache: tuple | None = None

    def build(self, input_shape, rng):
        channels = input_shape[-1]
        self.params["gamma"] = np.ones(channels, dtype=np.float32)
        self.params["beta"] = np.zeros(channels, dtype=np.float32)
        self.grads["gamma"] = np.zeros_like(self.params["gamma"])
        self.grads["beta"] = np.zeros_like(self.params["beta"])
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        super().build(input_shape, rng)

    def _axes(self, x: np.ndarray) -> tuple[int, ...]:
        return tuple(range(x.ndim - 1))

    def forward(self, x, training=False):
        axes = self._axes(x)
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            m = self.momentum
            self.running_mean = m * self.running_mean + (1 - m) * mean
            self.running_var = m * self.running_var + (1 - m) * var
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        x_hat = (x - mean) * inv_std
        out = self.params["gamma"] * x_hat + self.params["beta"]
        if training:
            self._cache = (x_hat, inv_std)
        return out

    def backward(self, dout):
        x_hat, inv_std = self._cache
        axes = self._axes(dout)
        self.grads["gamma"][...] = (dout * x_hat).sum(axis=axes)
        self.grads["beta"][...] = dout.sum(axis=axes)
        # dx = gamma/std * (dout - mean(dout) - x_hat * mean(dout * x_hat))
        dmean = dout.mean(axis=axes)
        dproj = (dout * x_hat).mean(axis=axes)
        return self.params["gamma"] * inv_std * (dout - dmean - x_hat * dproj)


class ReLU(Layer):
    def __init__(self, name: str | None = None):
        super().__init__(name)
        self._mask: np.ndarray | None = None

    def forward(self, x, training=False):
        if training:
            self._mask = x > 0
            return x * self._mask
        return np.maximum(x, 0)

    def backward(self, dout):
        return dout * self._mask


class Sign(Layer):
    """Binarizing sign activation with a straight-through estimator.

    Forward maps to the bipolar binary domain {-1, +1} (``sign(0) = +1``,
    the Larq ``ste_sign`` convention).  Backward passes gradients through
    where ``|x| <= 1`` (hard-tanh STE).
    """

    def __init__(self, name: str | None = None):
        super().__init__(name)
        self._cache: np.ndarray | None = None

    def forward(self, x, training=False):
        if training:
            self._cache = x
        return ops.bipolar_sign(x)

    def backward(self, dout):
        return dout * (np.abs(self._cache) <= 1.0)


class MaxPool2D(Layer):
    def __init__(self, size: int = 2, name: str | None = None):
        super().__init__(name)
        self.size = size
        self._mask: np.ndarray | None = None

    def compute_output_shape(self, input_shape):
        h, w, c = input_shape
        return (h // self.size, w // self.size, c)

    def forward(self, x, training=False):
        out, mask = ops.maxpool2d(x, self.size, with_mask=training)
        if training:
            self._mask = mask
        return out

    def backward(self, dout):
        return ops.maxpool2d_backward(dout, self._mask, self.size)


class AvgPool2D(Layer):
    def __init__(self, size: int = 2, name: str | None = None):
        super().__init__(name)
        self.size = size

    def compute_output_shape(self, input_shape):
        h, w, c = input_shape
        return (h // self.size, w // self.size, c)

    def forward(self, x, training=False):
        return ops.avgpool2d(x, self.size)

    def backward(self, dout):
        return ops.avgpool2d_backward(dout, self.size)


class GlobalAvgPool2D(Layer):
    def __init__(self, name: str | None = None):
        super().__init__(name)
        self._spatial: tuple[int, int] | None = None

    def compute_output_shape(self, input_shape):
        return (input_shape[-1],)

    def forward(self, x, training=False):
        self._spatial = (x.shape[1], x.shape[2])
        return x.mean(axis=(1, 2))

    def backward(self, dout):
        h, w = self._spatial
        spread = dout[:, None, None, :] / (h * w)
        return np.broadcast_to(spread, (dout.shape[0], h, w, dout.shape[1])).copy()


class Flatten(Layer):
    def __init__(self, name: str | None = None):
        super().__init__(name)
        self._shape: tuple[int, ...] | None = None

    def compute_output_shape(self, input_shape):
        return (int(np.prod(input_shape)),)

    def forward(self, x, training=False):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        return dout.reshape(self._shape)


class ChannelScale(Layer):
    """Learnable per-channel multiplicative scale.

    Used by the Real-to-Binary architecture family, which re-scales binary
    convolution outputs with real-valued per-channel gains.
    """

    def __init__(self, name: str | None = None):
        super().__init__(name)
        self._cache: np.ndarray | None = None

    def build(self, input_shape, rng):
        channels = input_shape[-1]
        self.params["scale"] = np.ones(channels, dtype=np.float32)
        self.grads["scale"] = np.zeros_like(self.params["scale"])
        super().build(input_shape, rng)

    def forward(self, x, training=False):
        if training:
            self._cache = x
        return x * self.params["scale"]

    def backward(self, dout):
        axes = tuple(range(dout.ndim - 1))
        self.grads["scale"][...] = (dout * self._cache).sum(axis=axes)
        return dout * self.params["scale"]
