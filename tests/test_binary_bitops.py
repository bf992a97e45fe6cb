"""Property-based and unit tests for the packed XNOR/popcount kernels."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binary import bitops


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


@given(st.integers(0, 40), st.integers(1, 320), st.integers(0, 24),
       st.one_of(st.just(bitops._BLOCK_WORDS), st.integers(1, 64)),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=120, deadline=None)
def test_binary_matmul_equals_float_gemm(m, k, n, block_words, seed):
    """Empty products included; K spans up to 5 words and is mostly not a
    multiple of 64, so the shared pad bits must cancel.  A small
    ``_BLOCK_WORDS`` splits the rows into several blocks (at the default
    every LeNet shape fits in one)."""
    rng = np.random.default_rng(seed)
    a = rng.choice([-1.0, 1.0], size=(m, k)).astype(np.float32)
    b = rng.choice([-1.0, 1.0], size=(k, n)).astype(np.float32)
    with mock.patch.object(bitops, "_BLOCK_WORDS", block_words):
        got = bitops.binary_matmul(a, b)
    np.testing.assert_array_equal(got, (a @ b).astype(np.int64))


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
