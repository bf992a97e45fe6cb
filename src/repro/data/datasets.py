"""Dataset container with the small conveniences the experiments need."""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Dataset", "LazyDataset"]


@dataclass
class Dataset:
    """Labelled image set: ``x`` is NHWC float32, ``y`` integer labels."""

    x: np.ndarray
    y: np.ndarray
    class_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError(f"x/y length mismatch: {len(self.x)} vs {len(self.y)}")

    def __len__(self) -> int:
        return len(self.x)

    @property
    def num_classes(self) -> int:
        return int(self.y.max()) + 1 if len(self.y) else 0

    def subset(self, n: int, seed: int | None = None) -> "Dataset":
        """First-n (or random-n when seeded) subset — for quick sweeps."""
        if n < 0:
            raise ValueError(f"a subset holds n >= 0 images, got n={n}")
        if n >= len(self):
            return self
        if seed is None:
            index = np.arange(n)
        else:
            index = np.random.default_rng(seed).choice(len(self), n, replace=False)
        return Dataset(self.x[index], self.y[index], self.class_names)

    def split(self, fraction: float, seed: int = 0) -> tuple["Dataset", "Dataset"]:
        """Shuffle-split into (first, second) parts; first gets ``fraction``."""
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be in (0, 1)")
        order = np.random.default_rng(seed).permutation(len(self))
        cut = int(round(fraction * len(self)))
        first, second = order[:cut], order[cut:]
        return (Dataset(self.x[first], self.y[first], self.class_names),
                Dataset(self.x[second], self.y[second], self.class_names))

    def batches(self, batch_size: int, seed: int | None = None):
        """Yield (x, y) minibatches, shuffled when a seed is given."""
        order = (np.arange(len(self)) if seed is None
                 else np.random.default_rng(seed).permutation(len(self)))
        for start in range(0, len(self), batch_size):
            index = order[start:start + batch_size]
            yield self.x[index], self.y[index]

    def class_balance(self) -> np.ndarray:
        """Per-class sample counts."""
        return np.bincount(self.y, minlength=self.num_classes)

    def standardized(self) -> "Dataset":
        """Mean-0 / std-1 normalization over the whole set (per channel)."""
        mean = self.x.mean(axis=(0, 1, 2), keepdims=True)
        std = self.x.std(axis=(0, 1, 2), keepdims=True) + 1e-7
        return Dataset(((self.x - mean) / std).astype(np.float32),
                       self.y, self.class_names)


class LazyDataset(Dataset):
    """A :class:`Dataset` whose images render in order, on demand.

    Images render only up to the longest prefix any caller has asked
    for: ``subset(60)`` renders 60 of them, ``x`` all of them.
    ``render(count)`` returns the leading ``count`` images (each the
    same whatever ``count`` is) and every label, so ``len`` and ``y``
    need no image.  Rendering holds a lock, so threads may share one
    instance.
    """

    def __init__(self,
                 render: Callable[[int], tuple[np.ndarray, np.ndarray]]):
        self._render = render
        self._x, self.y = render(0)  # _x: the longest prefix rendered
        self.class_names: list[str] = []
        self._lock = threading.Lock()

    @property  # type: ignore[override]
    def x(self) -> np.ndarray:
        return self._prefix(len(self.y))

    def _prefix(self, count: int) -> np.ndarray:
        with self._lock:
            if len(self._x) < count:
                self._x = self._render(count)[0]
            x = self._x
        return x if len(x) == count else x[:count]

    def __len__(self) -> int:
        return len(self.y)

    def __repr__(self) -> str:
        return f"LazyDataset({len(self._x)} of {len(self)} images rendered)"

    def subset(self, n: int, seed: int | None = None) -> Dataset:
        if seed is None and 0 <= n < len(self):
            return Dataset(self._prefix(n).copy(), self.y[:n].copy())
        return super().subset(n, seed)
