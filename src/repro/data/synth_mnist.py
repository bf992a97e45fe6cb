"""Procedural MNIST stand-in: stroke-rendered handwritten-style digits.

The offline environment has no access to the MNIST files, so the paper's
workload is substituted with a procedural generator: each
digit class is a fixed stroke skeleton (polylines/arcs on a unit grid),
rasterized at 28×28 with per-sample random affine jitter (rotation, scale,
translation), stroke-thickness variation and pixel noise.  The resulting
task has MNIST's shape (28×28×1 grey-scale, 10 classes) and difficulty
profile: a small binary CNN reaches the high-90s, leaving room for
fault-induced degradation to show.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DIGIT_STROKES", "render_digit", "generate_dataset", "load_synth_mnist"]


def _arc(cx, cy, rx, ry, start_deg, end_deg, points=24):
    angles = np.linspace(np.radians(start_deg), np.radians(end_deg), points)
    return np.stack([cx + rx * np.cos(angles), cy + ry * np.sin(angles)], axis=1)


def _line(x0, y0, x1, y1, points=12):
    t = np.linspace(0.0, 1.0, points)[:, None]
    return np.array([[x0, y0]]) * (1 - t) + np.array([[x1, y1]]) * t


# Stroke skeletons in a unit box; x to the right, y downward.
DIGIT_STROKES: dict[int, list[np.ndarray]] = {
    0: [_arc(0.5, 0.5, 0.26, 0.36, 0, 360, 48)],
    1: [_line(0.38, 0.28, 0.55, 0.15), _line(0.55, 0.15, 0.55, 0.85)],
    2: [_arc(0.5, 0.32, 0.24, 0.18, 160, 380, 24),
        _line(0.72, 0.42, 0.28, 0.85), _line(0.28, 0.85, 0.75, 0.85)],
    3: [_arc(0.48, 0.33, 0.22, 0.18, 150, 395, 24),
        _arc(0.48, 0.67, 0.24, 0.19, 325, 575, 24)],
    4: [_line(0.62, 0.15, 0.25, 0.62), _line(0.25, 0.62, 0.78, 0.62),
        _line(0.62, 0.15, 0.62, 0.85)],
    5: [_line(0.72, 0.15, 0.32, 0.15), _line(0.32, 0.15, 0.30, 0.47),
        _arc(0.48, 0.65, 0.24, 0.21, 250, 480, 24)],
    6: [_arc(0.52, 0.30, 0.22, 0.40, 200, 280, 16),
        _arc(0.50, 0.66, 0.22, 0.20, 0, 360, 32)],
    7: [_line(0.25, 0.15, 0.75, 0.15), _line(0.75, 0.15, 0.42, 0.85)],
    8: [_arc(0.5, 0.32, 0.20, 0.17, 0, 360, 32),
        _arc(0.5, 0.68, 0.24, 0.19, 0, 360, 32)],
    9: [_arc(0.5, 0.34, 0.22, 0.20, 0, 360, 32),
        _arc(0.48, 0.30, 0.24, 0.42, 280, 360, 16)],
}


def _transform(points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random affine jitter: rotate, scale, shear a little, translate."""
    angle = rng.uniform(-0.22, 0.22)
    scale = rng.uniform(0.85, 1.1)
    shear = rng.uniform(-0.12, 0.12)
    cos, sin = np.cos(angle), np.sin(angle)
    matrix = np.array([[cos, -sin], [sin, cos]]) @ np.array([[1.0, shear], [0.0, 1.0]])
    centered = points - 0.5
    moved = centered @ (matrix.T * scale)
    shift = rng.uniform(-0.06, 0.06, size=2)
    return moved + 0.5 + shift


def render_digit(digit: int, rng: np.random.Generator, size: int = 28) -> np.ndarray:
    """Render one jittered digit as a float32 image in [0, 1]."""
    if digit not in DIGIT_STROKES:
        raise ValueError(f"digit must be 0..9, got {digit}")
    thickness = rng.uniform(0.55, 1.05)
    yy, xx = np.mgrid[0:size, 0:size]
    points = []
    for stroke in DIGIT_STROKES[digit]:
        pts = _transform(stroke, rng) * (size - 1)
        # densify: interpolate between consecutive skeleton points
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


def generate_dataset(n: int, seed: int = 0, size: int = 28
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Generate ``n`` images with balanced class labels (shuffled)."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 10
    rng.shuffle(labels)
    images = np.empty((n, size, size, 1), dtype=np.float32)
    for i, digit in enumerate(labels):
        images[i, :, :, 0] = render_digit(int(digit), rng, size)
    return images, labels.astype(np.int64)


def load_synth_mnist(n_train: int = 4000, n_test: int = 1000, seed: int = 42
                     ) -> tuple[tuple[np.ndarray, np.ndarray],
                                tuple[np.ndarray, np.ndarray]]:
    """(x_train, y_train), (x_test, y_test) — the MNIST-substitute splits.

    Train and test are drawn from disjoint seeds so the test set measures
    generalization over the jitter distribution, not memorization.
    """
    train = generate_dataset(n_train, seed=seed)
    test = generate_dataset(n_test, seed=seed + 10_000)
    return train, test
