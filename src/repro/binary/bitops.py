"""Bit-exact XNOR/popcount kernels on packed uint64 words.

These kernels compute the same binary GEMM as the float path but in the
integer domain the hardware actually operates in: bipolar {-1, +1} values
are packed 64-per-word (+1 -> bit 1), products become XNOR, and the
accumulation becomes ``K - 2 * popcount(xor)``.

Beyond serving as an independent oracle for the binary layers, they are an
execution backend: :mod:`repro.binary.layers` runs its dense/conv forward
passes through :func:`packed_matmul_words` when a layer's execution backend
is set to ``"packed"``.  Because every partial sum of ±1 terms is a small
integer (|sum| <= K < 2**24), the float32 GEMM is exact too — the packed
path is bit-identical to it, just ~64x denser in memory traffic.

:func:`packed_matmul_words` runs a compiled C kernel
(:mod:`repro.binary.native`), built into the cache directory on the first
packed GEMM of a process.  :func:`numpy_matmul_words`, the numpy word
loop, is its reference and its automatic fallback when no compiled
kernel can be built, loaded or trusted; :func:`kernel` says which one
this process runs and why.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

from ..nn.ops import sign_bits

if TYPE_CHECKING:
    from .native import Kernel

__all__ = [
    "pack_bipolar",
    "pack_bits",
    "pack_sign",
    "unpack_bipolar",
    "xnor_accumulate",
    "packed_matmul_words",
    "numpy_matmul_words",
    "kernel",
    "binary_matmul",
]

_WORD = 64
_BLOCK_WORDS = 1 << 21  # ~16 MiB of uint64 XOR temporary per GEMM block


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a uint8 {0,1} array along its last axis into uint64 words.

    Parameters
    ----------
    bits : ndarray, uint8
        Shape ``(..., length)`` with values in {0, 1}.

    Returns
    -------
    ndarray, uint64
        Shape ``(..., ceil(length / 64))``.  Bit ``k`` of the packed
        stream is element ``k`` of the input; pad bits are 0.

    Notes
    -----
    Uses ``np.packbits`` + a little-endian uint64 view, which is an order
    of magnitude faster than the shift-and-sum formulation.  Deterministic
    bit layout: equal inputs pack to equal words on every platform numpy
    supports (the view is explicitly ``<u8``).
    """
    length = bits.shape[-1]
    pad = (-length) % _WORD
    if pad:
        bits = np.concatenate(
            [bits, np.zeros(bits.shape[:-1] + (pad,), dtype=np.uint8)], axis=-1)
    packed_bytes = np.packbits(bits, axis=-1, bitorder="little")
    words = np.ascontiguousarray(packed_bytes).view(np.dtype("<u8"))
    return words.astype(np.uint64, copy=False)


def pack_bipolar(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Pack a bipolar {-1,+1} array along its last axis into uint64 words.

    Parameters
    ----------
    x : ndarray
        Shape ``(..., length)`` with values in {-1, +1} (any real dtype).

    Returns
    -------
    (ndarray, int)
        ``(packed, length)``: uint64 words of shape
        ``(..., ceil(length / 64))`` and the unpadded reduction length.
        +1 maps to bit 1, -1 to bit 0; trailing pad bits are 0 and are
        cancelled out by the caller using ``length``.

    Raises
    ------
    ValueError
        If any element is not exactly ±1 (the packed domain cannot encode
        zeros or scaled values).
    """
    if not np.all(np.abs(x) == 1):
        raise ValueError("pack_bipolar expects values in {-1, +1}")
    bits = (x > 0).astype(np.uint8)
    return pack_bits(bits), x.shape[-1]


def pack_sign(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Pack ``sign(x)`` (with sign(0) = +1, the Larq convention) directly.

    Equivalent to ``pack_bipolar(ste_sign(x))`` without materializing the
    intermediate ±1 float array — the packed fast path quantizes and packs
    activations in one pass.  A boolean ``x`` is its own sign
    (:func:`repro.nn.ops.sign_bits`): its bits are packed as they are.
    """
    return pack_bits(sign_bits(x).view(np.uint8)), x.shape[-1]


def unpack_bipolar(packed: np.ndarray, length: int) -> np.ndarray:
    """Inverse of :func:`pack_bipolar`."""
    shifts = np.arange(_WORD, dtype=np.uint64)
    bits = (packed[..., :, None] >> shifts) & np.uint64(1)
    flat = bits.reshape(packed.shape[:-1] + (-1,))[..., :length]
    return np.where(flat == 1, 1.0, -1.0).astype(np.float32)


def xnor_accumulate(a_packed: np.ndarray, b_packed: np.ndarray, length: int) -> np.ndarray:
    """Sum of elementwise XNOR products of two packed bipolar vectors.

    Parameters
    ----------
    a_packed, b_packed : ndarray, uint64
        Broadcast-compatible packed operands (last axis = words).
    length : int
        Unpadded reduction length K.

    Returns
    -------
    ndarray, int64
        ``(a * b).sum(-1)`` of the unpacked ±1 vectors: each matching bit
        contributes +1, each mismatch -1, so the sum equals
        ``length - 2 * popcount(a ^ b)`` once pad bits (equal in both)
        are discounted.  Exact integer arithmetic — no rounding, ever.
    """
    xor = np.bitwise_xor(a_packed, b_packed)
    mismatches = np.bitwise_count(xor).sum(axis=-1, dtype=np.int64)
    return (length - 2 * mismatches).astype(np.int64)


def packed_matmul_words(a_words: np.ndarray, b_words: np.ndarray,
                        length: int) -> np.ndarray:
    """Binary GEMM on pre-packed operands: ``(m, w) x (n, w) -> (m, n)``.

    Parameters
    ----------
    a_words : ndarray, uint64
        ``m`` packed rows, ``w = ceil(length / 64)`` words wide.
    b_words : ndarray, uint64
        ``n`` packed rows of the *transposed* right operand, same width.
    length : int
        Unpadded reduction length K (cancels the shared pad bits).

    Returns
    -------
    ndarray, int64
        Shape ``(m, n)``; bit-identical to the float32 GEMM of the
        unpacked ±1 matrices (every partial sum is a small integer).

    Notes
    -----
    Runs the compiled kernel when this process has one (:func:`kernel`),
    else :func:`numpy_matmul_words`; both give the same integers.
    """
    gemm = kernel().gemm
    if gemm is None:
        return numpy_matmul_words(a_words, b_words, length)
    return gemm(a_words, b_words, length)


@functools.cache
def kernel() -> Kernel:
    """The packed GEMM this process runs, loaded on first use.

    ``kernel().name`` is ``"c"`` for the compiled kernel or ``"numpy"``
    for the fallback, whose ``reason`` and ``detail`` say why
    (:class:`repro.binary.native.Kernel`).  Concurrent first calls may
    each load; every load gives the same answer.
    """
    # imported here: only packed runs pay for the loader's imports
    from . import native
    return native.load(numpy_matmul_words)


def numpy_matmul_words(a_words: np.ndarray, b_words: np.ndarray,
                       length: int) -> np.ndarray:
    """:func:`packed_matmul_words` as a numpy word loop: the compiled
    kernel's reference and fallback.

    Row blocks bound the XOR temporary to ~``_BLOCK_WORDS`` words so
    large im2col matrices do not blow up memory; the block walk is a pure
    reassociation of integer additions, so results do not depend on the
    block size.
    """
    m = a_words.shape[0]
    n = b_words.shape[0]
    words = a_words.shape[-1]
    out = np.empty((m, n), dtype=np.int64)
    block = max(1, _BLOCK_WORDS // max(1, n))
    mismatches = np.zeros((min(block, m), n), dtype=np.int64)
    for start in range(0, m, block):
        stop = min(start + block, m)
        acc = mismatches[:stop - start]
        acc[...] = 0
        # accumulate word-by-word: keeps temporaries at (block, n) instead
        # of (block, n, words) and beats the broadcast+reduce formulation
        for wi in range(words):
            acc += np.bitwise_count(a_words[start:stop, wi, None]
                                    ^ b_words[None, :, wi])
        out[start:stop] = length - 2 * acc
    return out


def binary_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bit-exact ``a @ b`` for bipolar matrices via packed XNOR/popcount.

    ``a`` is ``(m, k)``, ``b`` is ``(k, n)``; the result is int64 ``(m, n)``.
    """
    a_packed, length = pack_bipolar(a)
    b_packed, _ = pack_bipolar(np.ascontiguousarray(b.T))
    return packed_matmul_words(a_packed, b_packed, length)
