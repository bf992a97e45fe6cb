"""Runtime measurement and extrapolation for the Fig. 4f comparison.

The paper measures FLIM and vanilla Larq on fifty full passes of the
10,000-image MNIST test set, but "estimate[s] the total run time of
X-Fault based on five images" — the device-level simulator is too slow to
run in full.  :func:`extrapolate` reproduces that protocol.
:func:`measure_interleaved` times the fast platforms warm and in turn,
so a cold first run or a drift in host speed does not decide their ratio.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = ["RuntimeSample", "measure", "measure_interleaved", "extrapolate",
           "speedup_table"]

#: timed runs per platform in :func:`measure_interleaved`
INTERLEAVED_TRIALS = 5


@dataclass(frozen=True)
class RuntimeSample:
    """One platform's runtime for a (possibly extrapolated) workload."""

    platform: str
    seconds: float
    images: int
    extrapolated_from: int | None = None

    @property
    def seconds_per_image(self) -> float:
        return self.seconds / self.images

    def describe(self) -> str:
        note = ("" if self.extrapolated_from is None
                else f" (extrapolated from {self.extrapolated_from} images)")
        return (f"{self.platform}: {self.seconds:.4g}s for {self.images} images"
                f" = {self.seconds_per_image * 1e3:.4g} ms/image{note}")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure(platform: str, fn, images: int) -> RuntimeSample:
    """Time one call of ``fn()``, which processes ``images`` images.

    For workloads too slow to repeat (the device-level baselines, which
    are extrapolated from a handful of images).
    """
    return RuntimeSample(platform, _timed(fn), images)


def measure_interleaved(fns: dict[str, Callable[[], object]],
                        images: int) -> list[RuntimeSample]:
    """Time each ``platform -> fn`` warm and in turn; report the medians.

    Every ``fn()`` (each processing ``images`` images) first runs once
    untimed, in order; then the platforms take turns for
    :data:`INTERLEAVED_TRIALS` timed rounds, so a drift in host speed
    lands on all of them alike.  Samples come back in ``fns`` order.
    """
    for fn in fns.values():
        fn()
    times: dict[str, list[float]] = {platform: [] for platform in fns}
    for _ in range(INTERLEAVED_TRIALS):
        for platform, fn in fns.items():
            times[platform].append(_timed(fn))
    return [RuntimeSample(platform, float(np.median(seconds)), images)
            for platform, seconds in times.items()]


def extrapolate(sample: RuntimeSample, total_images: int) -> RuntimeSample:
    """Scale a small-sample measurement to the full workload (paper's §IV)."""
    factor = total_images / sample.images
    return RuntimeSample(
        platform=sample.platform,
        seconds=sample.seconds * factor,
        images=total_images,
        extrapolated_from=sample.images)


def speedup_table(samples: list[RuntimeSample],
                  reference: str) -> list[tuple[str, float, float]]:
    """(platform, seconds, speedup-vs-reference) rows, like Fig. 4f.

    ``reference`` names the slow baseline (X-Fault in the paper); its own
    speedup is 1.
    """
    by_name = {sample.platform: sample for sample in samples}
    if reference not in by_name:
        raise KeyError(f"reference platform {reference!r} not among samples")
    base = by_name[reference].seconds
    return [(sample.platform, sample.seconds, base / sample.seconds)
            for sample in samples]
