"""The compiled XNOR/popcount kernel's loader (repro.binary.native) and
the numpy fallback a packed campaign reports when it cannot load."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.binary import bitops, native
from repro.core import FaultCampaign, FaultSpec
from repro.experiments.common import cache_dir, get_mnist, trained_lenet
from repro.obs import Observability

SRC = Path(__file__).resolve().parents[1] / "src"

needs_compiler = pytest.mark.skipif(native.compiler() is None,
                                    reason="no C compiler on PATH")


@pytest.fixture
def fresh_kernel():
    """Forget this process's loaded kernel before and after the test, so
    the test loads its own and later tests reload the real one."""
    bitops.kernel.cache_clear()
    yield
    bitops.kernel.cache_clear()


def _libraries(directory: Path) -> list[Path]:
    return sorted(directory.glob("*xnor_gemm*"))


@needs_compiler
def test_library_cached_under_another_target_is_not_loaded(tmp_path,
                                                           monkeypatch):
    """The library name keys on the host's target: a cache restored
    from a machine with other instructions builds anew instead of
    loading what that machine built."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    here = native.load(bitops.numpy_matmul_words)
    assert here.name == "c", here.detail
    assert _libraries(tmp_path) == [here.path]
    monkeypatch.setattr(native, "_target",
                        lambda cc: "a CPU without AVX-512")
    elsewhere = native.load(bitops.numpy_matmul_words)
    assert elsewhere.name == "c", elsewhere.detail
    assert elsewhere.path != here.path
    assert _libraries(tmp_path) == sorted([here.path, elsewhere.path])


def _break_cache_dir(tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "cache"))


def _break_flags(tmp_path, monkeypatch):
    monkeypatch.setattr(native, "FLAGS",
                        (*native.FLAGS, "--no-such-compiler-flag"))


def _corrupt_library(tmp_path, monkeypatch):
    cc = native.compiler()
    native.library_path(cc, native._target(cc)).write_bytes(b"not a library")


@needs_compiler
@pytest.mark.parametrize("reason, breakage", [
    ("cache-unwritable", _break_cache_dir),
    ("build-failed", _break_flags),
    ("load-failed", _corrupt_library),
])
def test_load_falls_back_and_names_the_reason(reason, breakage, tmp_path,
                                              monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    breakage(tmp_path, monkeypatch)
    loaded = native.load(bitops.numpy_matmul_words)
    assert (loaded.name, loaded.gemm, loaded.reason) == ("numpy", None,
                                                         reason)
    assert loaded.detail
    assert not list(tmp_path.glob("*.tmp"))


@needs_compiler
def test_load_refuses_a_kernel_that_disagrees_with_the_reference(
        tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

    def off_by_one(a_words, b_words, length):
        return bitops.numpy_matmul_words(a_words, b_words, length) + 1

    loaded = native.load(off_by_one)
    assert (loaded.name, loaded.reason) == ("numpy", "self-check-failed")


def _conv1_sweep(model, test):
    obs = Observability()
    with FaultCampaign(model, test.x, test.y, backend="packed",
                       obs=obs) as campaign:
        result = campaign.run(FaultSpec.bitflip, xs=[0.1, 0.2], repeats=2,
                              layers=["conv1"])
    return result, obs.metrics.snapshot()["counters"]


def test_packed_campaign_without_a_compiler_runs_and_reports_numpy(
        tmp_path, monkeypatch, fresh_kernel):
    model = trained_lenet()
    _, test = get_mnist()
    test = test.subset(300)
    compiled, counters = _conv1_sweep(model, test)
    assert compiled.meta["kernel"] == ("c" if native.compiler() else "numpy")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(native, "_COMPILERS", ())
    bitops.kernel.cache_clear()
    fallback, counters = _conv1_sweep(model, test)
    assert fallback.meta["kernel"] == "numpy"
    assert bitops.kernel().reason == "no-compiler"
    np.testing.assert_array_equal(fallback.accuracies, compiled.accuracies)
    assert counters["repro_kernel_fallback_total{reason=no-compiler}"] == 1
    assert _libraries(tmp_path) == []


def test_float_campaign_never_loads_the_kernel(fresh_kernel):
    model = trained_lenet()
    _, test = get_mnist()
    test = test.subset(100)
    with FaultCampaign(model, test.x, test.y) as campaign:
        result = campaign.run(FaultSpec.bitflip, xs=[0.1], repeats=1)
    assert "kernel" not in result.meta
    assert bitops.kernel.cache_info().currsize == 0


@pytest.mark.parametrize("backend, libraries", [("float", 0), ("packed", 1)])
def test_quick_run_builds_the_library_only_on_packed(backend, libraries,
                                                     tmp_path):
    """A cold ``repro run fig4a --quick`` in a fresh cache directory
    (holding only the LeNet weights): float leaves no library, packed
    builds one when a compiler is present."""
    trained_lenet()
    weights = cache_dir() / "lenet_s0_e6.npz"
    shutil.copy(weights, tmp_path / weights.name)
    env = {**os.environ, "REPRO_CACHE_DIR": str(tmp_path),
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "repro", "run", "fig4a", "--quick",
                    "--backend", backend], env=env, check=True,
                   capture_output=True, timeout=300)
    expected = libraries if native.compiler() else 0
    assert len(_libraries(tmp_path)) == expected
