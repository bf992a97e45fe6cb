"""The compiled XNOR/popcount GEMM: built on first use, cached, checked.

:func:`load` compiles ``xnor_gemm.c`` (shipped next to this module) with
the C compiler on ``PATH``, keeps the library in the cache directory
(:func:`repro.cache.cache_dir`), loads it with :mod:`ctypes` and checks
it against a reference GEMM on a fixed operand set.  It never raises:
when there is no compiler, the build fails, the cache directory is not
writable, the library does not load or the check disagrees, it returns
a :class:`Kernel` without a compiled function that names the reason,
and the caller runs its numpy loop instead
(:func:`repro.binary.bitops.kernel`).

The library's file name is a hash of the source, the flags, the
compiler and the target ``-march=native`` resolves to on this host (the
compiler's predefined macros), so a cache directory restored onto
another machine never loads a library built for instructions that
machine lacks.  A build is written to a temporary file and renamed
into place, so concurrent processes and threads never load a
half-written library.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import numpy.typing as npt

from ..cache import cache_dir

__all__ = ["FLAGS", "SOURCE", "Gemm", "Kernel", "compiler", "library_path",
           "load"]

#: the C source, shipped as package data
SOURCE = Path(__file__).with_name("xnor_gemm.c")
FLAGS = ("-O3", "-march=native", "-shared", "-fPIC")
#: compiler names tried on ``PATH``, in order
_COMPILERS = ("cc", "gcc", "clang")
#: seconds a compiler call may take before the build counts as failed
_COMPILE_TIMEOUT_S = 120.0

Gemm = Callable[[npt.NDArray[np.uint64], npt.NDArray[np.uint64], int],
                npt.NDArray[np.int64]]

#: self-check shapes ``(m, words, n)``: word counts 0-5, and n past the
#: kernel's 8-column block, with and without a partial last block
_CHECK_SHAPES = ((0, 2, 3), (3, 0, 5), (5, 1, 1), (7, 2, 8), (6, 3, 19),
                 (9, 4, 70), (4, 5, 64))


@dataclass(frozen=True)
class Kernel:
    """The packed GEMM a process runs.

    ``name`` is ``"c"`` with ``gemm`` the compiled function, or
    ``"numpy"`` (``gemm`` is ``None``) with ``reason`` one of
    ``no-compiler``, ``build-failed``, ``cache-unwritable``,
    ``load-failed`` or ``self-check-failed`` and ``detail`` saying more.
    """

    name: str
    gemm: Gemm | None = None
    path: Path | None = None
    reason: str | None = None
    detail: str = ""


class _Fallback(Exception):
    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


def compiler() -> str | None:
    """The C compiler on ``PATH`` the kernel is built with, if any."""
    for name in _COMPILERS:
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def _run(argv: list[str]) -> str:
    """A compiler call's stdout; :class:`_Fallback` when it fails."""
    try:
        result = subprocess.run(argv, capture_output=True, text=True,
                                timeout=_COMPILE_TIMEOUT_S, check=False)
    except (OSError, subprocess.SubprocessError) as error:
        raise _Fallback("build-failed", repr(error)) from error
    if result.returncode != 0:
        raise _Fallback("build-failed",
                        f"{argv[0]} exited {result.returncode}: "
                        f"{result.stderr.strip()[-400:]}")
    return result.stdout


def _target(cc: str) -> str:
    """What ``-march=native`` means here: the compiler's predefined
    macros (its version and every instruction-set macro among them)."""
    macros = _run([cc, "-march=native", "-dM", "-E", "-x", "c", os.devnull])
    return "\n".join(sorted(macros.splitlines()))


def library_path(cc: str, target: str) -> Path:
    """Where the library built by ``cc`` for ``target`` is cached."""
    try:
        source = SOURCE.read_bytes()
    except OSError as error:
        raise _Fallback("build-failed", repr(error)) from error
    digest = hashlib.sha256(source)
    for part in (*FLAGS, os.path.realpath(cc), target):
        digest.update(b"\0" + part.encode())
    try:
        directory = cache_dir()
    except OSError as error:
        raise _Fallback("cache-unwritable", repr(error)) from error
    return directory / f"xnor_gemm-{digest.hexdigest()[:16]}.so"


def _build(cc: str, path: Path) -> None:
    """Compile into a temporary file beside ``path``, then rename it."""
    try:
        handle, temporary = tempfile.mkstemp(
            prefix=f".{path.stem}-", suffix=".tmp", dir=path.parent)
        os.close(handle)
    except OSError as error:
        raise _Fallback("cache-unwritable", repr(error)) from error
    try:
        _run([cc, *FLAGS, "-o", temporary, str(SOURCE)])
        os.replace(temporary, path)
    except OSError as error:
        raise _Fallback("cache-unwritable", repr(error)) from error
    finally:
        with contextlib.suppress(FileNotFoundError):  # renamed into place
            os.unlink(temporary)


def _bind(path: Path) -> Gemm:
    """The library's ``xnor_gemm`` behind the signature of
    :func:`repro.binary.bitops.packed_matmul_words`."""
    try:
        function = ctypes.CDLL(str(path)).xnor_gemm
    except (OSError, AttributeError) as error:
        raise _Fallback("load-failed", repr(error)) from error
    function.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64] * 4
    function.restype = None

    def gemm(a_words: npt.NDArray[np.uint64],
             b_words: npt.NDArray[np.uint64],
             length: int) -> npt.NDArray[np.int64]:
        # the C loop reads exactly these contiguous buffers; anything
        # else is copied first (read-only operands are read in place)
        a = np.ascontiguousarray(a_words, dtype=np.uint64)
        bt = np.ascontiguousarray(np.transpose(b_words), dtype=np.uint64)
        if a.ndim != 2 or bt.ndim != 2 or a.shape[1] != bt.shape[0]:
            raise ValueError(f"packed operands {np.shape(a_words)} and "
                             f"{np.shape(b_words)} are not (m, words) and "
                             "(n, words)")
        (m, words), n = a.shape, bt.shape[1]
        out = np.empty((m, n), dtype=np.int64)
        function(a.ctypes.data, bt.ctypes.data, out.ctypes.data,
                 m, n, words, int(length))
        return out
    return gemm


def _self_check(gemm: Gemm, reference: Gemm) -> None:
    rng = np.random.default_rng(0)
    high = np.iinfo(np.uint64).max
    for m, words, n in _CHECK_SHAPES:
        a = rng.integers(0, high, size=(m, words), dtype=np.uint64,
                         endpoint=True)
        b = rng.integers(0, high, size=(n, words), dtype=np.uint64,
                         endpoint=True)
        length = max(0, 64 * words - 5)
        if not np.array_equal(gemm(a, b, length), reference(a, b, length)):
            raise _Fallback("self-check-failed",
                            f"compiled result differs at (m, words, n) = "
                            f"{(m, words, n)}")


def load(reference: Gemm) -> Kernel:
    """Build (or find in the cache), load and check the compiled GEMM.

    ``reference`` is the GEMM the compiled one must equal on the
    self-check operands.  Never raises; see :class:`Kernel`.
    """
    try:
        cc = compiler()
        if cc is None:
            raise _Fallback("no-compiler",
                            f"none of {', '.join(_COMPILERS)} on PATH")
        path = library_path(cc, _target(cc))
        if not path.exists():
            _build(cc, path)
        gemm = _bind(path)
        _self_check(gemm, reference)
    except _Fallback as fallback:
        return Kernel("numpy", reason=fallback.reason,
                      detail=fallback.detail)
    return Kernel("c", gemm=gemm, path=path)
