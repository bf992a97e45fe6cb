"""Shared experiment plumbing: datasets, trained-model caching, configs.

Training is the expensive one-time substrate of the evaluation; weights
are cached as ``.npz`` under the cache directory (``REPRO_CACHE_DIR`` or
``<repo>/artifacts/cache``) so every benchmark and example re-uses them.
A process keeps the arrays of the last weight file it read
(:func:`_read_weights`) and copies them into a fresh model on every
call, so a long-lived process (the service, a benchmark round) reads
each file once.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .. import nn
from ..cache import cache_dir
from ..data import Dataset, lazy_synth_mnist, load_synth_imagenet
from ..models import build_lenet, build_model
from ..models.zoo import MODEL_BUILDERS

__all__ = ["cache_dir", "get_mnist", "get_imagenet", "trained_lenet",
           "trained_zoo_model", "MNIST_TEST_SIZE", "IMAGENET_TEST_SIZE"]

#: default evaluation sizes — small enough for CPU sweeps, large enough
#: for stable accuracy estimates (the paper's repetitions do the averaging)
MNIST_TEST_SIZE = 800
IMAGENET_TEST_SIZE = 400

#: per-family training schedules (learning rate, epochs)
_TRAIN_SCHEDULE = {
    "default": (2e-3, 6),
    "binary_densenet28": (5e-3, 8),
    "binary_densenet37": (5e-3, 8),
    "binary_densenet45": (5e-3, 8),
    "meliusnet22": (5e-3, 8),
}


@lru_cache(maxsize=4)
def get_mnist(n_train: int = 3000, n_test: int = MNIST_TEST_SIZE,
              seed: int = 42) -> tuple[Dataset, Dataset]:
    """(train, test) synthetic-MNIST datasets (memoized per process).

    Both splits render on demand (:class:`repro.data.LazyDataset`):
    ``test.subset(60)`` renders 60 images, and the training split
    renders only when :func:`trained_lenet` misses its weight cache.
    """
    return lazy_synth_mnist(n_train, n_test, seed)


@lru_cache(maxsize=4)
def get_imagenet(n_train: int = 1500, n_test: int = IMAGENET_TEST_SIZE,
                 seed: int = 7) -> tuple[Dataset, Dataset]:
    """(train, test) synthetic-ImageNet datasets (memoized per process)."""
    (x_tr, y_tr), (x_te, y_te) = load_synth_imagenet(n_train, n_test, seed)
    return Dataset(x_tr, y_tr), Dataset(x_te, y_te)


def _train(model, train: Dataset, learning_rate: float, epochs: int,
           seed: int) -> None:
    trainer = nn.Trainer(nn.Adam(learning_rate), seed=seed)
    trainer.fit(model, train.x, train.y, epochs=epochs, batch_size=64)


#: the last weight file read: ((path, st_mtime_ns, st_size), its
#: read-only arrays by state-dict key)
_weights_read: tuple[tuple, dict[str, np.ndarray]] | None = None


def _read_weights(path) -> dict[str, np.ndarray]:
    """The arrays of the weight file at ``path``, read once while its
    path, modification time and size stay the same; a re-saved file is
    read again.  Read-only: models copy them in ``load_state_dict``."""
    global _weights_read
    stat = path.stat()
    key = (str(path), stat.st_mtime_ns, stat.st_size)
    read = _weights_read
    if read is not None and read[0] == key:
        return read[1]
    with np.load(path) as archive:
        state = {name: archive[name] for name in archive.files}
    for array in state.values():
        array.flags.writeable = False
    _weights_read = (key, state)
    return state


def trained_lenet(seed: int = 0, epochs: int = 6, force: bool = False):
    """The binary LeNet of the Fig. 4 experiments, trained and cached."""
    model = build_lenet(seed=seed)
    path = cache_dir() / f"lenet_s{seed}_e{epochs}.npz"
    if path.exists() and not force:
        model.load_state_dict(_read_weights(path))
        return model
    train, _ = get_mnist()
    _train(model, train, learning_rate=2e-3, epochs=epochs, seed=seed)
    model.save_weights(path)
    return model


def trained_zoo_model(name: str, seed: int = 0, force: bool = False):
    """A Table-II architecture trained on synthetic ImageNet, cached."""
    if name not in MODEL_BUILDERS:
        raise ValueError(f"unknown zoo model {name!r}")
    model = build_model(name, seed=seed)
    learning_rate, epochs = _TRAIN_SCHEDULE.get(name, _TRAIN_SCHEDULE["default"])
    path = cache_dir() / f"zoo_{name}_s{seed}_e{epochs}.npz"
    if path.exists() and not force:
        model.load_state_dict(_read_weights(path))
        return model
    train, _ = get_imagenet()
    _train(model, train, learning_rate, epochs, seed=seed)
    model.save_weights(path)
    return model
