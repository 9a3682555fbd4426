"""Synthetic MNIST: stroke-rendered digits 0-9 on a 28x28 grid.

Each digit class has a fixed polyline skeleton (roughly the shapes of the
handwritten digits); per-sample augmentation applies a shared translation,
per-vertex wobble, random stroke thickness, and pixel noise.  The result is
an image-classification task of MNIST's shape and flavour whose difficulty
tracks ``NOISE`` and ``WOBBLE``.

Tensor layout matches the paper's MNIST model (Table II): inputs are
``(N, 1, 28, 28)`` floats in ``[0, 1)``, labels ``0..9``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datasets.common import (
    add_noise,
    balanced_labels,
    check_counts,
    draw_segments,
    jitter_points,
)
from repro.nn.data import Dataset

IMAGE_SIZE = 28
NUM_CLASSES = 10
#: Augmentation of each rendered digit: per-vertex wobble and shared
#: shift (pixels), then additive pixel noise (sigma).
WOBBLE = 0.7
SHIFT = 2.0
NOISE = 0.08

# Polyline skeletons in a 28x28 coordinate frame, one or more strokes each.
_DIGIT_STROKES: Dict[int, List[List[Tuple[float, float]]]] = {
    0: [[(14, 5), (9, 8), (8, 14), (9, 20), (14, 23), (19, 20), (20, 14),
         (19, 8), (14, 5)]],
    1: [[(11, 8), (15, 5), (15, 23)], [(11, 23), (19, 23)]],
    2: [[(9, 9), (12, 5), (17, 6), (19, 10), (16, 14), (11, 18), (8, 23),
         (20, 23)]],
    3: [[(9, 6), (16, 5), (19, 9), (15, 13), (19, 17), (16, 22), (9, 22)],
        [(12, 13), (15, 13)]],
    4: [[(16, 5), (8, 17), (21, 17)], [(16, 5), (16, 23)]],
    5: [[(19, 5), (10, 5), (9, 13), (16, 12), (19, 16), (16, 22), (9, 22)]],
    6: [[(17, 5), (11, 9), (9, 16), (11, 22), (16, 22), (19, 18), (16, 14),
         (10, 15)]],
    7: [[(8, 5), (20, 5), (13, 23)], [(11, 14), (17, 14)]],
    8: [[(14, 5), (10, 8), (13, 13), (17, 17), (14, 22), (10, 18), (13, 13),
         (17, 8), (14, 5)]],
    9: [[(18, 13), (12, 14), (9, 10), (12, 5), (17, 6), (18, 13), (16, 23)]],
}


def render_digit(digit: int, rng: np.random.Generator) -> np.ndarray:
    """Render one augmented sample of ``digit`` as a 28x28 image."""
    if digit not in _DIGIT_STROKES:
        raise ValueError(f"digit must be 0..9, got {digit}")
    img = np.zeros((IMAGE_SIZE, IMAGE_SIZE))
    thickness = rng.uniform(1.1, 1.8)
    starts: List[Tuple[float, float]] = []
    ends: List[Tuple[float, float]] = []
    for stroke in _DIGIT_STROKES[digit]:
        pts = jitter_points(stroke, rng, shift=SHIFT, wobble=WOBBLE)
        starts += pts[:-1]
        ends += pts[1:]
    # Drawing draws no random numbers, so all strokes go in one pass.
    draw_segments(img, starts, ends, thickness=thickness)
    return add_noise(img, rng, NOISE)


def make_mnist(
    n_samples: int = 2000,
    *,
    seed: int = 0,
    render: Optional[int] = None,
) -> Dataset:
    """Generate a synthetic-MNIST dataset of ``(N, 1, 28, 28)`` images.

    ``render`` keeps only the first ``render`` samples, bit-equal to the
    full draw's: every label is drawn first, then the images one by one.
    """
    check_counts(n_samples, NUM_CLASSES)
    rng = np.random.default_rng(seed)
    labels = balanced_labels(n_samples, NUM_CLASSES, rng)[:render]
    images = np.zeros((len(labels), 1, IMAGE_SIZE, IMAGE_SIZE))
    for i, lab in enumerate(labels):
        images[i, 0] = render_digit(int(lab), rng)
    return Dataset(images, labels.astype(np.int64), NUM_CLASSES, name="synth-mnist")
