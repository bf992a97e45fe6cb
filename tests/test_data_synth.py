"""Tests for the synthetic dataset generators."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.data import (Dataset, LazyDataset, lazy_synth_mnist,
                        load_synth_imagenet, load_synth_mnist, synth_mnist)
from repro.data.synth_imagenet import CLASS_NAMES, render_class
from repro.data.synth_mnist import DIGIT_STROKES, render_digit


def _exp_of_sum_render(digit, rng, size=28):
    """The renderer before it was made separable: one ``exp`` per stroke
    point and pixel.  The oracle of ``render_digit``."""
    thickness = rng.uniform(0.55, 1.05)
    yy, xx = np.mgrid[0:size, 0:size]
    points = []
    for stroke in DIGIT_STROKES[digit]:
        pts = synth_mnist._transform(stroke, rng) * (size - 1)
        points.append(np.concatenate([
            pts[:-1] + (pts[1:] - pts[:-1]) * t
            for t in np.linspace(0, 1, 3, endpoint=False)
        ], axis=0))
    all_points = np.concatenate(points, axis=0)
    dist2 = ((xx[None] - all_points[:, 0, None, None]) ** 2
             + (yy[None] - all_points[:, 1, None, None]) ** 2)
    image = np.exp(-dist2 / (2 * thickness ** 2)).sum(axis=0).astype(np.float32)
    image = np.clip(image, 0.0, 1.0)
    image += rng.normal(0.0, 0.06, image.shape).astype(np.float32)
    return np.clip(image, 0.0, 1.0)


def test_all_digits_have_strokes():
    assert set(DIGIT_STROKES) == set(range(10))


def test_render_digit_shape_and_range(rng):
    image = render_digit(3, rng)
    assert image.shape == (28, 28)
    assert image.dtype == np.float32
    assert 0.0 <= image.min() and image.max() <= 1.0
    assert image.max() > 0.5  # strokes must actually be drawn


def test_render_digit_rejects_bad_label(rng):
    with pytest.raises(ValueError):
        render_digit(10, rng)


def test_render_digit_jitter_varies(rng):
    a = render_digit(5, np.random.default_rng(0))
    b = render_digit(5, np.random.default_rng(1))
    assert not np.array_equal(a, b)


def test_digits_are_distinguishable():
    """Mean images of different classes must differ substantially."""
    means = []
    for digit in range(10):
        rng = np.random.default_rng(100 + digit)
        means.append(np.mean([render_digit(digit, rng) for _ in range(8)], axis=0))
    for i in range(10):
        for j in range(i + 1, 10):
            assert np.abs(means[i] - means[j]).mean() > 0.02, (i, j)


def test_mnist_splits_shapes():
    (x_tr, y_tr), (x_te, y_te) = load_synth_mnist(n_train=50, n_test=20)
    assert x_tr.shape == (50, 28, 28, 1)
    assert x_te.shape == (20, 28, 28, 1)
    assert y_tr.shape == (50,)
    assert set(np.unique(y_tr)) <= set(range(10))


def test_mnist_train_test_disjoint_rendering():
    (x_tr, _), (x_te, _) = load_synth_mnist(n_train=20, n_test=20, seed=0)
    assert not np.array_equal(x_tr[:20], x_te[:20])


def test_mnist_deterministic_by_seed():
    a = load_synth_mnist(n_train=10, n_test=5, seed=3)
    b = load_synth_mnist(n_train=10, n_test=5, seed=3)
    np.testing.assert_array_equal(a[0][0], b[0][0])


@pytest.mark.parametrize("n, seed, count", [
    (3000, 42, 300),        # the training split of get_mnist()
    (800, 10_042, 300),     # its test split
    (64, 0, 64), (64, 7, 64), (200, 123, 100)])
def test_separable_renderer_equals_exp_of_sum_oracle(monkeypatch, n, seed,
                                                     count):
    """The separable renderer reassociates float64 sums and products;
    the float32 cast and the clip at 1.0 must absorb that, bit for bit."""
    images, labels = synth_mnist.generate_dataset(n, seed, count=count)
    monkeypatch.setattr(synth_mnist, "render_digit", _exp_of_sum_render)
    oracle, oracle_labels = synth_mnist.generate_dataset(n, seed, count=count)
    np.testing.assert_array_equal(labels, oracle_labels)
    assert images.shape == (count, 28, 28, 1)
    np.testing.assert_array_equal(images, oracle)


def test_generate_dataset_count_renders_a_prefix():
    full_x, full_y = synth_mnist.generate_dataset(30, seed=5)
    x, y = synth_mnist.generate_dataset(30, seed=5, count=12)
    np.testing.assert_array_equal(x, full_x[:12])
    np.testing.assert_array_equal(y, full_y)
    assert synth_mnist.generate_dataset(30, seed=5, count=0)[0].shape \
        == (0, 28, 28, 1)


@pytest.fixture(scope="module")
def eager_test_split():
    """The 800-image test split of ``get_mnist()``, rendered eagerly."""
    return synth_mnist.generate_dataset(800, seed=10_042)


@pytest.mark.parametrize("order", ["increasing", "decreasing"])
def test_lazy_split_prefixes_equal_the_eager_split(eager_test_split, order):
    x, y = eager_test_split
    split = lazy_synth_mnist(n_train=3000, n_test=800, seed=42)[1]
    assert isinstance(split, LazyDataset)
    # labels and length need no image
    assert len(split) == 800
    np.testing.assert_array_equal(split.y, y)
    assert "0 of 800" in repr(split)
    ks = [0, 1, 60, 200, 800]
    for k in ks if order == "increasing" else ks[::-1]:
        subset = split.subset(k)
        assert len(subset) == k
        assert subset.x.shape == (k, 28, 28, 1)
        np.testing.assert_array_equal(subset.x, x[:k])
        np.testing.assert_array_equal(subset.y, y[:k])
    np.testing.assert_array_equal(split.x, x)
    # a subset covering the split is the split itself, not a copy
    assert split.subset(800) is split
    assert split.subset(900) is split


def test_lazy_split_renders_only_the_longest_prefix_asked_for():
    rendered = []

    def render(count):
        rendered.append(count)
        return synth_mnist.generate_dataset(50, seed=3, count=count)

    split = LazyDataset(render)
    assert rendered == [0]
    split.subset(10)
    split.subset(5)
    split.subset(10)
    assert rendered == [0, 10]
    split.x
    split.subset(30)
    assert rendered == [0, 10, 50]
    # a seeded random subset needs the whole split
    assert isinstance(split.subset(5, seed=1), Dataset)
    assert rendered == [0, 10, 50]


def test_lazy_split_shared_by_threads():
    """Four threads (more than the cores) ask one fresh split for
    different prefixes.  Each gets the serial render's images, and the
    split keeps the longest prefix asked for: a short render finishing
    last must not replace it."""
    n = 120
    serial = synth_mnist.generate_dataset(n, seed=9)[0]
    rendered = []

    def render(count):
        images = synth_mnist.generate_dataset(n, seed=9, count=count)
        if 0 < count < n:
            time.sleep(0.05)  # let a short render finish last
        rendered.append(count)
        return images

    split = LazyDataset(render)
    barrier = threading.Barrier(4)
    results, errors = {}, []

    def ask(k):
        try:
            barrier.wait(timeout=30)
            results[k] = split.subset(k).x if k < n else split.x
        except Exception as error:  # reported by the assert below
            errors.append(error)

    threads = [threading.Thread(target=ask, args=(k,))
               for k in (7, 40, 90, n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert sorted(results) == [7, 40, 90, n]
    for k, x in results.items():
        np.testing.assert_array_equal(x, serial[:k])
    renders = len(rendered)
    np.testing.assert_array_equal(split.x, serial)
    assert len(rendered) == renders


def test_imagenet_classes_shape_and_range(rng):
    for label in range(10):
        image = render_class(label, rng)
        assert image.shape == (32, 32, 3)
        assert 0.0 <= image.min() and image.max() <= 1.0


def test_imagenet_rejects_bad_label(rng):
    with pytest.raises(ValueError):
        render_class(10, rng)


def test_imagenet_has_ten_class_names():
    assert len(CLASS_NAMES) == 10
    assert len(set(CLASS_NAMES)) == 10


def test_imagenet_splits_balanced():
    (x_tr, y_tr), _ = load_synth_imagenet(n_train=100, n_test=10)
    counts = np.bincount(y_tr, minlength=10)
    assert (counts == 10).all()


def test_imagenet_structure_not_color():
    """Per-sample colors are randomized: channel means must vary in-class."""
    rng = np.random.default_rng(0)
    means = [render_class(0, rng).mean(axis=(0, 1)) for _ in range(6)]
    assert np.std([m[0] for m in means]) > 0.02
