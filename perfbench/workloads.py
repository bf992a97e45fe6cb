"""What each benchmark workload runs, shared by ``run.py``, its worker
processes and the server hook.

A workload seed (``--seed``) is the only input: it picks the base seed
of every Fig. 4 round and every service job, so the same seed always
runs the same fault plans.  Sizes come in two profiles: the real one,
and a tiny one for the self-test that swaps the MNIST loader for a
64-image split and trains throwaway weights into a temporary cache.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from time import perf_counter

#: the paper's full LeNet study, run through the registry at its
#: default axes (rates, periods, faulty-line counts)
FIG4_ENTRIES = ("fig4a", "fig4b", "fig4c", "fig4d", "fig4e")
#: crossbar geometry of the Fig. 4 entries (the registry defaults)
GRID_ROWS, GRID_COLS = 40, 10
#: the LIM-mapped LeNet layers; every other series injects into all
MAPPED_LAYERS = ("conv1", "conv2", "dense0", "dense1")

#: the weight file ``trained_lenet()`` caches (seed 0, six epochs)
LENET_WEIGHTS = "lenet_s0_e6.npz"

#: sizes per profile.  Three repeats per point make one Fig. 4a-e round
#: 417 cells (about 3-4 s on a 2-vCPU host); a service job is a durable
#: four-cell sweep, small enough that per-job fixed costs dominate.
SIZES = {
    False: {"fig4_images": 800, "fig4_repeats": 3, "traced_rounds": 2,
            "job_images": 200, "traced_jobs": 100, "fig4_checks": 30,
            "job_checks": 16},
    True: {"fig4_images": 32, "fig4_repeats": 1, "traced_rounds": 1,
           "job_images": 32, "traced_jobs": 4, "fig4_checks": 5,
           "job_checks": 2},
}

#: sweep rates of one service job (the 0.0 point is answered from the
#: campaign baseline, the others are evaluated)
JOB_RATES = (0.0, 0.1, 0.2, 0.3)


def fig4_params(seed: int, round_index: int, repeats: int,
                images: int) -> dict:
    """Registry params of one Fig. 4 entry in round ``round_index``."""
    return {"seed": seed * 1000 + round_index, "repeats": repeats,
            "images": images}


def job_params(seed: int, job_index: int, images: int) -> dict:
    """Registry params of the ``sweep`` behind service job ``job_index``
    (job 0 is the warm-up job every server set-up ends with)."""
    return {"fault": "bitflip", "rates": list(JOB_RATES), "repeats": 1,
            "images": images, "seed": seed * 100_000 + job_index}


def timed_cell(entry: str, series: str, x: float) -> bool:
    """Whether a Fig. 4 cell is an operation of the latency metrics: a
    cell whose faults reach conv1, so it evaluates the whole mapped
    network (the conv1, combined and dynamic curves: one mode, where
    cells faulting only later layers start from cached activations and
    would form shorter modes for the quantiles to jump between), and
    that asks for faults (rate-0 points are answered from the campaign
    baseline; fig4c sweeps the period at a fixed 10% rate)."""
    return (series in ("conv1", "combined", "dynamic")
            and (entry == "fig4c" or x != 0))


def reference_specs(entry: str, x: float):
    """The fault spec of one Fig. 4 sweep point, built from the paper's
    definition of each sub-figure rather than from the code under test."""
    from repro.core import FaultSpec
    if entry == "fig4a":
        return FaultSpec.bitflip(x)
    if entry == "fig4b":
        return FaultSpec.stuck_at(x)
    if entry == "fig4c":
        return FaultSpec.bitflip(0.10, period=int(x))
    if entry == "fig4d":
        return FaultSpec.faulty_columns(int(x))
    if entry == "fig4e":
        return FaultSpec.faulty_rows(int(x))
    raise ValueError(f"no reference for {entry!r}")


def use_tiny_dataset() -> None:
    """Replace the MNIST loader with a 64 + 64 image split (self-test)."""
    from functools import lru_cache

    from repro.data import Dataset, load_synth_mnist
    from repro.experiments import common

    @lru_cache(maxsize=1)
    def tiny_mnist(*_args, **_kwargs):
        (x_tr, y_tr), (x_te, y_te) = load_synth_mnist(64, 64, 42)
        return Dataset(x_tr, y_tr), Dataset(x_te, y_te)

    common.get_mnist = tiny_mnist


def setup_model_and_data():
    """What a user's process does before its first campaign: import the
    api, load the registry, load the cached LeNet and build MNIST."""
    from repro import api
    from repro.experiments import common
    api.experiment_names()
    model = common.trained_lenet()
    _, test = common.get_mnist()
    return model, test


class HostProbe:
    """Reads the host's current speed with a fixed mix of interpreter,
    numpy and BLAS work that shares no code with repro.

    On a shared 2-vCPU host every CPU-bound timing swings by a quarter
    or more between quiet and contended periods, and the speed also
    drifts within a run.  The probe slows down with the program, so
    timings are reported at the reference speed.  Timed work runs in
    blocks of under a second (one Fig. 4 entry, or the service jobs
    between two probes) with a probe before and after each; a block's
    times are multiplied by ``(REFERENCE_S / p) ** EXPONENT``, ``p``
    the mean of its two probes (:meth:`bracket`).  Set-up times use
    the run's median probe (:meth:`scale`).  Program changes cannot
    move the probe; the raw timings are kept in the run's metadata.
    """

    #: the probe's duration on an uncontended shared 2-vCPU Xeon host
    REFERENCE_S = 0.09
    #: how much of the probe's swing a timing follows.  Log-log slopes
    #: of program time on probe time were 0.7-0.8 per Fig. 4 entry and
    #: round but 0.3 per block of service jobs, and the probe misjudges
    #: some processes: scaling fully (1) over-corrected across runs.
    #: Over 27 ten-second windows of a packed Fig. 4 stream, 15 of a
    #: service stream and 5 whole runs, 0.5 gave spreads (IQR over
    #: median) of 0.04-0.09 on every timing, against 0.05-0.12 at 1
    #: and 0.08-0.15 unscaled.  On ten whole runs of each workload the
    #: spreads of images_per_s and the median latency at 0.5 were within
    #: 0.02 of the best of 0, 0.25, 0.5, 0.75 and 1.
    EXPONENT = 0.5

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._np = np
        self._b = rng.standard_normal((200, 16)).astype(np.float32)
        self._x = rng.standard_normal((64, 24, 24, 8)).astype(np.float32)
        self.seconds()  # the first call also starts the BLAS threads
        #: every probe taken through :meth:`read`, in order
        self.readings: list[float] = []

    def read(self) -> float:
        """Probe once and keep the reading."""
        self.readings.append(self.seconds())
        return self.readings[-1]

    def bracket(self) -> float:
        """Probe again and return the factor taking a time measured
        since the previous reading to the reference speed."""
        before = self.readings[-1]
        mean = (before + self.read()) / 2
        return (self.REFERENCE_S / mean) ** self.EXPONENT

    def seconds(self) -> float:
        """One probe: about a third each GEMM (conv1's im2col shape, on
        every BLAS thread, streaming 13 MB), pooling and interpreter."""
        start = perf_counter()
        # allocated per call and freed, so the probe leaves no resident
        # memory behind in the process whose peak RSS is measured
        cols = self._np.ones((16384, 200), dtype=self._np.float32)
        for _ in range(12):
            (cols @ self._b).sum()
        del cols
        for _ in range(12):
            self._x.reshape(64, 12, 2, 12, 2, 8).max(axis=(2, 4)).sum()
        total = 0
        for i in range(500_000):
            total += i * i
        return perf_counter() - start

    @classmethod
    def scale(cls, probes: list[float]) -> float:
        """Factor taking a time measured during ``probes`` to the
        reference speed."""
        return (cls.REFERENCE_S / statistics.median(probes)) ** cls.EXPONENT


def grid_digest(grid: list) -> str:
    """sha256 of an accuracy grid (floats serialise exactly via repr)."""
    return hashlib.sha256(json.dumps(grid).encode()).hexdigest()[:16]


def tail_rank(n: int) -> int:
    """1-based rank of the reported tail: p90, or the highest rank that
    still leaves ten samples beyond it when there are fewer than 100."""
    return max(1, min(math.ceil(0.9 * n), n - 10))


def latency_summary(values: list[float]) -> dict:
    """Median, tail, sample count and quartiles of one latency sample."""
    ordered = sorted(values)
    n = len(ordered)
    rank = tail_rank(n)
    quartiles = (statistics.quantiles(ordered, n=4) if n > 1
                 else [ordered[0]] * 3)
    return {"n": n, "p50": statistics.median(ordered),
            "tail": ordered[rank - 1], "tail_q": rank / n,
            "quartiles": quartiles}
