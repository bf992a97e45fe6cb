"""Property-based and unit tests for the packed XNOR/popcount kernels."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binary import bitops, native


def bipolar_arrays(min_len=1, max_len=200):
    return st.integers(min_len, max_len).flatmap(
        lambda n: st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))


@given(bipolar_arrays())
@settings(max_examples=60, deadline=None)
def test_pack_unpack_roundtrip(values):
    x = np.array(values, dtype=np.float32)
    packed, length = bitops.pack_bipolar(x)
    assert length == len(values)
    np.testing.assert_array_equal(bitops.unpack_bipolar(packed, length), x)


@given(st.integers(1, 300), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_xnor_accumulate_equals_dot(length, seed):
    rng = np.random.default_rng(seed)
    a = rng.choice([-1.0, 1.0], size=length).astype(np.float32)
    b = rng.choice([-1.0, 1.0], size=length).astype(np.float32)
    a_packed, _ = bitops.pack_bipolar(a)
    b_packed, _ = bitops.pack_bipolar(b)
    got = bitops.xnor_accumulate(a_packed, b_packed, length)
    assert got == int(np.dot(a, b))


def _compiled_gemm():
    """The compiled kernel; skipped only when there is no C compiler, so
    a compiler that cannot build or load the kernel fails the test."""
    if native.compiler() is None:
        pytest.skip("no C compiler on PATH")
    loaded = bitops.kernel()
    assert loaded.name == "c", f"{loaded.reason}: {loaded.detail}"
    return loaded.gemm


def _operand(words: np.ndarray, layout: str) -> np.ndarray:
    """``words`` as a plain, read-only or non-contiguous array."""
    if layout == "readonly":
        words = words.copy()
        words.flags.writeable = False
    elif layout == "strided":
        wide = np.zeros((words.shape[0], 2 * words.shape[1] + 1),
                        dtype=words.dtype)
        wide[:, 1::2] = words
        words = wide[:, 1::2]
    return words


@pytest.mark.parametrize("implementation", ["c", "numpy"])
@given(st.integers(0, 40), st.integers(1, 700), st.integers(0, 80),
       st.one_of(st.just(bitops._BLOCK_WORDS), st.integers(1, 64)),
       st.sampled_from(["plain", "readonly", "strided"]),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=120, deadline=None)
def test_binary_matmul_equals_float_gemm(implementation, m, k, n,
                                         block_words, layout, seed):
    """Empty products included; K spans up to 11 words and is mostly not
    a multiple of 64, so the shared pad bits must cancel, and n runs past
    the compiled kernel's 8-column block.  A small ``_BLOCK_WORDS``
    splits the numpy loop's rows into several blocks (at the default
    every LeNet shape fits in one)."""
    gemm = (_compiled_gemm() if implementation == "c"
            else bitops.numpy_matmul_words)
    rng = np.random.default_rng(seed)
    a = rng.choice([-1.0, 1.0], size=(m, k)).astype(np.float32)
    b = rng.choice([-1.0, 1.0], size=(k, n)).astype(np.float32)
    a_words, length = bitops.pack_bipolar(a)
    b_words, _ = bitops.pack_bipolar(np.ascontiguousarray(b.T))
    with mock.patch.object(bitops, "_BLOCK_WORDS", block_words):
        got = gemm(_operand(a_words, layout), _operand(b_words, layout),
                   length)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, (a @ b).astype(np.int64))


def test_binary_matmul_runs_the_loaded_kernel():
    """``binary_matmul`` goes through ``packed_matmul_words``, which runs
    whichever kernel this process loaded."""
    rng = np.random.default_rng(7)
    a = rng.choice([-1.0, 1.0], size=(33, 200)).astype(np.float32)
    b = rng.choice([-1.0, 1.0], size=(200, 17)).astype(np.float32)
    np.testing.assert_array_equal(bitops.binary_matmul(a, b),
                                  (a @ b).astype(np.int64))


def test_pack_rejects_non_bipolar():
    with pytest.raises(ValueError):
        bitops.pack_bipolar(np.array([0.5, 1.0]))


def test_xnor_accumulate_parity_bound(rng):
    """|dot| <= length and dot has the same parity as length."""
    for _ in range(10):
        length = int(rng.integers(1, 128))
        a = rng.choice([-1.0, 1.0], size=length)
        b = rng.choice([-1.0, 1.0], size=length)
        ap, _ = bitops.pack_bipolar(a)
        bp, _ = bitops.pack_bipolar(b)
        acc = int(bitops.xnor_accumulate(ap, bp, length))
        assert abs(acc) <= length
        assert (acc - length) % 2 == 0
