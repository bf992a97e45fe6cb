"""Quantized layers — the Larq-equivalent QuantConv2D / QuantDense.

These are the layers the paper maps onto memristive crossbars.  Each layer

* binarizes inputs and/or kernels through pluggable quantizers,
* computes the fault-free feature map,
* then runs the attached *fault hooks* — exactly the injection point the
  paper patched into Larq ("the original convolution method has been
  overwritten ... the fault masks are applied by performing another XNOR
  operation", §III).

Two hooks exist, matching the two physical fault granularities described in
docs/fault-models.md#semantics-where-a-mask-acts:

``kernel_fault_hook(binary_kernel, layer) -> binary_kernel``
    Applied to the binarized kernel before the GEMM.  Stuck-at faults on
    weight cells live here: the corruption persists for every XNOR that
    reuses the cell.

``output_fault_hook(feature_map, layer) -> feature_map``
    Applied to the computed feature map.  Transient bit-flips, dynamic
    faults and structural row/column faults live here.

``product_fault_hook(out_flat, cols, qw, layer) -> out_flat``
    Device-true reference path: receives the flat GEMM result together
    with the bipolar im2col matrix and kernel so individual XNOR products
    can be corrupted.  Slower (forces the explicit GEMM formulation);
    used for verification and ablation.

Execution backends
------------------
Every quantized layer carries an ``execution_backend`` attribute:

``"float"`` (default)
    im2col + float32 GEMM.  Exact: every partial sum of ±1 terms is a
    small integer, so float32 accumulation never rounds.

``"packed"``
    The inference fast path: operands are bit-packed 64-per-uint64 word
    and the GEMM runs as XNOR + popcount
    (:func:`repro.binary.bitops.packed_matmul_words`), the arithmetic the
    LIM crossbar natively performs.  The GEMM is a C kernel compiled into
    the cache directory on a process's first packed GEMM
    (:mod:`repro.binary.native`), or the numpy word loop when no compiled
    kernel can be built or trusted; both give the same integers, and a
    packed campaign records which one ran (``meta["kernel"]``).  Weights
    are packed once per fault plan and cached; activations are packed per
    batch, or come from the evaluator's memo.  The packed path is
    bit-identical to the float path and composes with the kernel and
    output fault hooks (weight stuck-at masks are applied to the binary
    kernel *before* packing).  Layers fall back to the float path
    automatically whenever packed semantics cannot express the
    computation: during training, when a product-level hook is attached,
    when a quantizer is not strictly binary (XNOR-Net's magnitude-aware
    gain), or for ``same``-padded convolutions (zero padding has no
    bipolar encoding).

Inference memo: a campaign evaluator replays the same read-only
activation batches through the model in every repetition.  The evaluator
owns a per-batch memo (:class:`repro.core.engine.CampaignEvaluator`) and
lends it to the quantized layers only while it evaluates
(``_input_memo``); a layer outside an evaluation, or fed any array the
evaluator does not replay, memoizes nothing, so ordinary
training/prediction is unaffected.  What a layer keeps there depends on
its hooks:

* without a kernel or product hook, nothing a fault plan does can change
  the layer's GEMM result, because output faults act on the feature map
  the layer has already computed.  The layer memoizes that result (tag
  ``"output"``, before the output hook and the bias), derives it without
  keeping its im2col columns or packed words, and marks it read-only;
  each repetition then starts at the output hook.  The evaluator keeps
  it as int16 where it is a popcount map whose next reader is a sign
  (:func:`repro.core.engine.popcount_output`): the output hook then
  runs on integers, and a bias returns float32;
* with a kernel or product hook the GEMM result depends on the plan, so
  the layer memoizes its derived input instead: the im2col columns
  (``"cols"``, float) or packed words (``"packed"``).

A boolean input is its own sign (:func:`repro.nn.ops.sign_bits`), so a
sign-quantized layer's ``forward(x >= 0)`` equals its ``forward(x)``:
the float path builds the ±1 map from the bits once, and the packed path
packs them without thresholding again.  The evaluator's sign folds hand
the layer after them such a map.
"""

from __future__ import annotations

import numpy as np

from ..nn import initializers, ops
from ..nn.layers import Layer
from . import bitops, quantizers

__all__ = ["QuantLayer", "QuantConv2D", "QuantDense"]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class QuantLayer(Layer):
    """Shared machinery of quantized layers: quantizers + fault hooks."""

    def __init__(self, input_quantizer=None, kernel_quantizer="ste_sign",
                 name: str | None = None):
        super().__init__(name)
        self.input_quantizer = quantizers.get(input_quantizer)
        self.kernel_quantizer = quantizers.get(kernel_quantizer)
        self.kernel_fault_hook = None
        self.output_fault_hook = None
        self.product_fault_hook = None
        self.execution_backend = "float"
        self._built_input_shape: tuple[int, ...] | None = None
        #: (kernel_fault_hook token, packed words | None, reduction length)
        self._packed_kernel_cache: tuple | None = None
        #: ``memo(layer, tag, x, derive) -> rep``, lent by a campaign
        #: evaluator for the duration of one evaluation; ``None`` otherwise
        self._input_memo = None

    # -- fault-injection plumbing ---------------------------------------
    def clear_fault_hooks(self) -> None:
        self.kernel_fault_hook = None
        self.output_fault_hook = None
        self.product_fault_hook = None

    def _invalidate_caches(self) -> None:
        """Drop derived-weight caches (call after in-place weight updates)."""
        self._packed_kernel_cache = None

    def _apply_kernel_hook(self, qkernel: np.ndarray) -> np.ndarray:
        if self.kernel_fault_hook is None:
            return qkernel
        return self.kernel_fault_hook(qkernel, self)

    def _apply_output_hook(self, out: np.ndarray) -> np.ndarray:
        if self.output_fault_hook is None:
            return out
        return self.output_fault_hook(out, self)

    def _quantize_kernel(self) -> np.ndarray:
        kernel = self.params["kernel"]
        if self.kernel_quantizer is None:
            return self._apply_kernel_hook(kernel)
        if isinstance(self.kernel_quantizer, quantizers.MagnitudeAwareSign):
            # Only the sign part lives on the crossbar; faults corrupt it,
            # the CMOS gain is re-applied afterwards.
            binary, gain = self.kernel_quantizer.split(kernel)
            return self._apply_kernel_hook(binary) * gain
        return self._apply_kernel_hook(self.kernel_quantizer.quantize(kernel))

    # -- packed fast path -------------------------------------------------
    def _packed_eligible(self) -> bool:
        """Whether the packed XNOR/popcount backend can run this layer."""
        return (self.execution_backend == "packed"
                and self.product_fault_hook is None
                and getattr(self.input_quantizer, "strictly_binary", False)
                and getattr(self.kernel_quantizer, "strictly_binary", False))

    def _packed_kernel_words(self) -> tuple[np.ndarray | None, int]:
        """Packed (transposed) binary kernel, cached per fault-hook state.

        The cache token is the kernel-hook object itself: attaching or
        detaching a fault plan swaps the hook and thereby forces a repack,
        while repeated inference under one plan packs exactly once.
        Returns ``(None, 0)`` when the hooked kernel is not bipolar.
        """
        token = self.kernel_fault_hook
        cache = self._packed_kernel_cache
        if cache is not None and cache[0] is token:
            return cache[1], cache[2]
        qkernel = self._quantize_kernel()
        flat = qkernel.reshape(-1, qkernel.shape[-1])
        try:
            words, length = bitops.pack_bipolar(np.ascontiguousarray(flat.T))
        except ValueError:
            words, length = None, 0
        self._packed_kernel_cache = (token, words, length)
        return words, length

    def _gemm_hooked(self) -> bool:
        """Whether a kernel or product hook can change the GEMM result."""
        return (self.kernel_fault_hook is not None
                or self.product_fault_hook is not None)

    def _derived_input(self, tag: str, x: np.ndarray, derive):
        """``derive()`` — the ``tag`` representation of input ``x`` —
        through the lent memo when the GEMM is hooked (an unhooked layer
        memoizes its output instead, :meth:`_inference_output`)."""
        if self._input_memo is None or not self._gemm_hooked():
            return derive()
        return self._input_memo(self, tag, x, derive)

    def _inference_output(self, x: np.ndarray) -> np.ndarray:
        """The inference GEMM result for ``x``, before the output hook and
        the bias; memoized and marked read-only when the memo is lent and
        the GEMM is not hooked."""
        if self._input_memo is None or self._gemm_hooked():
            return self._product(x)
        return self._input_memo(self, "output", x,
                                lambda: _read_only(self._product(x)))

    def _product(self, x: np.ndarray) -> np.ndarray:
        """The inference GEMM result, packed where eligible, else float."""
        raise NotImplementedError

    def _finish(self, out: np.ndarray) -> np.ndarray:
        """The output hook, then the bias."""
        out = self._apply_output_hook(out)
        if self.use_bias:
            out = out + self.params["bias"]
        return out

    def _quantize_input(self, x: np.ndarray) -> np.ndarray:
        return self.input_quantizer.quantize(x) if self.input_quantizer else x

    # -- LIM geometry ----------------------------------------------------
    @property
    def is_mapped(self) -> bool:
        """Whether this layer's arithmetic runs on the crossbar.

        Following the paper (and X-Fault's conservative approach), a layer
        is mapped only when both operands are binary so every
        multiply-accumulate term is a genuine XNOR; anything non-binary
        (e.g. a first conv fed with grey-scale pixels) stays in CMOS.
        """
        return self.kernel_quantizer is not None and self.input_quantizer is not None

    def reduction_length(self) -> int:
        """Number of XNOR products accumulated per output element (K)."""
        raise NotImplementedError

    def outputs_per_image(self) -> int:
        """Number of output elements per input image (O)."""
        raise NotImplementedError

    @property
    def output_channels(self) -> int:
        """Output-channel count (F) — the crossbar's column dimension."""
        raise NotImplementedError

    def positions_per_image(self) -> int:
        """Streamed input positions per image (P = O / F)."""
        return self.outputs_per_image() // self.output_channels

    def xnor_ops_per_image(self) -> int:
        """Total XNOR operations per image: N = O * K."""
        return self.outputs_per_image() * self.reduction_length()

    # -- Table II bookkeeping ---------------------------------------------
    def binary_param_count(self) -> int:
        return int(self.params["kernel"].size) if self.kernel_quantizer else 0

    def full_precision_param_count(self) -> int:
        total = sum(int(p.size) for p in self.params.values())
        return total - self.binary_param_count()


class QuantConv2D(QuantLayer):
    """Binarized 2-D convolution (NHWC, kernel ``(kh, kw, c_in, c_out)``)."""

    def __init__(self, filters: int, kernel_size: int, stride: int = 1,
                 padding: str = "valid", use_bias: bool = False,
                 input_quantizer=None, kernel_quantizer="ste_sign",
                 kernel_initializer="glorot_uniform", name: str | None = None):
        super().__init__(input_quantizer, kernel_quantizer, name)
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
        self._built_input_shape = tuple(input_shape)
        super(QuantLayer, self).build(input_shape, rng)

    def compute_output_shape(self, input_shape):
        h, w, _ = input_shape
        k, s = self.kernel_size, self.stride
        if self.padding == "same":
            oh, ow = -(-h // s), -(-w // s)
        else:
            oh = ops.conv_output_size(h, k, s, 0)
            ow = ops.conv_output_size(w, k, s, 0)
        return (oh, ow, self.filters)

    def reduction_length(self):
        _, _, c_in = self._built_input_shape
        return self.kernel_size * self.kernel_size * c_in

    def outputs_per_image(self):
        oh, ow, c_out = self.compute_output_shape(self._built_input_shape)
        return oh * ow * c_out

    @property
    def output_channels(self):
        return self.filters

    def _forward_packed(self, x) -> np.ndarray | None:
        """Packed XNOR/popcount convolution; ``None`` -> float fallback.

        ``same`` padding injects zeros into the im2col matrix, which have
        no bipolar encoding — only ``valid`` convolutions run packed.
        """
        if self.padding != "valid":
            return None
        kwords, length = self._packed_kernel_words()
        if kwords is None:
            return None
        xwords, (oh, ow) = self._derived_input(
            "packed", x, lambda: self._packed_input(x))
        flat = bitops.packed_matmul_words(xwords, kwords, length)
        return flat.astype(np.float32).reshape(x.shape[0], oh, ow, self.filters)

    def _packed_input(self, x) -> tuple[np.ndarray, tuple[int, int]]:
        # sign-threshold first (a boolean map is its own sign): im2col
        # then gathers uint8, not float32, and packing happens directly
        # from the {0,1} bit planes
        cols_bits, shape = self._im2col(ops.sign_bits(x).view(np.uint8))
        return bitops.pack_bits(cols_bits), shape

    def _im2col(self, x) -> tuple[np.ndarray, tuple[int, int]]:
        return ops.im2col(x, self.kernel_size, self.kernel_size,
                          self.stride, self.padding)

    def _gemm(self, cols, shape, qkernel) -> np.ndarray:
        """Float GEMM of im2col ``cols`` with ``qkernel``, through the
        product hook, as an NHWC map of spatial ``shape``."""
        qw = qkernel.reshape(-1, self.filters)
        flat = cols @ qw
        if self.product_fault_hook is not None:
            flat = self.product_fault_hook(flat, cols, qw, self)
        return flat.reshape(-1, *shape, self.filters)

    def _product(self, x):
        if self._packed_eligible():
            out = self._forward_packed(x)
            if out is not None:
                return out
        cols, shape = self._derived_input(
            "cols", x, lambda: self._im2col(self._quantize_input(x)))
        return self._gemm(cols, shape, self._quantize_kernel())

    def forward(self, x, training=False):
        if not training:
            return self._finish(self._inference_output(x))
        qx = self._quantize_input(x)
        qkernel = self._quantize_kernel()
        out = self._finish(self._gemm(*self._im2col(qx), qkernel))
        self._cache = (x, qx, qkernel)
        return out

    def backward(self, dout):
        x, qx, qkernel = self._cache
        self._invalidate_caches()  # weights change right after this pass
        if self.use_bias:
            self.grads["bias"][...] = dout.sum(axis=(0, 1, 2))
        dqx, dqkernel = ops.conv2d_backward(
            dout, qx, qkernel, self.stride, self.padding)
        if self.kernel_quantizer is not None:
            self.grads["kernel"][...] = self.kernel_quantizer.grad(
                self.params["kernel"], dqkernel)
        else:
            self.grads["kernel"][...] = dqkernel
        if self.input_quantizer is not None:
            return self.input_quantizer.grad(x, dqx)
        return dqx


class QuantDense(QuantLayer):
    """Binarized fully connected layer."""

    def __init__(self, units: int, use_bias: bool = False,
                 input_quantizer=None, kernel_quantizer="ste_sign",
                 kernel_initializer="glorot_uniform", name: str | None = None):
        super().__init__(input_quantizer, kernel_quantizer, name)
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
        self._built_input_shape = tuple(input_shape)
        super(QuantLayer, self).build(input_shape, rng)

    def compute_output_shape(self, input_shape):
        return (self.units,)

    def reduction_length(self):
        return self._built_input_shape[0]

    def outputs_per_image(self):
        return self.units

    @property
    def output_channels(self):
        return self.units

    def _forward_packed(self, x) -> np.ndarray | None:
        """Packed XNOR/popcount matmul; ``None`` -> float fallback."""
        kwords, length = self._packed_kernel_words()
        if kwords is None:
            return None
        xwords = self._derived_input("packed", x,
                                     lambda: bitops.pack_sign(x)[0])
        flat = bitops.packed_matmul_words(xwords, kwords, length)
        return flat.astype(np.float32)

    def _gemm(self, qx, qkernel) -> np.ndarray:
        """Float matmul of ``qx`` with ``qkernel``, through the product
        hook."""
        out = qx @ qkernel
        if self.product_fault_hook is not None:
            out = self.product_fault_hook(out, qx, qkernel, self)
        return out

    def _product(self, x):
        if self._packed_eligible():
            out = self._forward_packed(x)
            if out is not None:
                return out
        return self._gemm(self._quantize_input(x), self._quantize_kernel())

    def forward(self, x, training=False):
        if not training:
            return self._finish(self._inference_output(x))
        qx = self._quantize_input(x)
        qkernel = self._quantize_kernel()
        out = self._finish(self._gemm(qx, qkernel))
        self._cache = (x, qx, qkernel)
        return out

    def backward(self, dout):
        x, qx, qkernel = self._cache
        self._invalidate_caches()  # weights change right after this pass
        if self.use_bias:
            self.grads["bias"][...] = dout.sum(axis=0)
        dqkernel = qx.T @ dout
        dqx = dout @ qkernel.T
        if self.kernel_quantizer is not None:
            self.grads["kernel"][...] = self.kernel_quantizer.grad(
                self.params["kernel"], dqkernel)
        else:
            self.grads["kernel"][...] = dqkernel
        if self.input_quantizer is not None:
            return self.input_quantizer.grad(x, dqx)
        return dqx
