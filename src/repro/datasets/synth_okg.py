"""Synthetic keyword-spotting (OKG) spectrogram patches.

Stands in for the Google Speech Commands task (Warden, 2018): 12 classes
(10 keywords + "silence" + "unknown") rendered as 28x28 time-frequency
patches.  Each keyword is a fixed arrangement of two or three formant-like
ridges (sinusoidal tracks in the spectrogram); "silence" is near-empty and
"unknown" draws randomized ridges.  Samples add time shift, frequency
wobble, and noise.

Shapes match the paper's OKG model: inputs ``(N, 1, 28, 28)``; a 5x5 conv
with 6 filters yields ``6 x 24 x 24 = 3456`` features, matching the
``FC 3456x512`` layer of Table II.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datasets.common import add_noise, balanced_labels, check_counts
from repro.nn.data import Dataset

IMAGE_SIZE = 28
NUM_CLASSES = 12
#: Additive pixel noise (sigma); silence gets half of it.
NOISE = 0.07

KEYWORDS = (
    "yes", "no", "up", "down", "left", "right", "on", "off", "stop", "go",
    "silence", "unknown",
)

# Each keyword: list of (start_freq, end_freq, curvature, intensity) ridges.
_RIDGES: Dict[int, List[Tuple[float, float, float, float]]] = {
    0: [(5, 9, 2.0, 1.0), (18, 14, -1.0, 0.8)],
    1: [(8, 8, 0.0, 1.0), (20, 23, 1.5, 0.7)],
    2: [(4, 12, 0.0, 1.0), (16, 24, 0.0, 0.9)],
    3: [(12, 4, 0.0, 1.0), (24, 16, 0.0, 0.9)],
    4: [(6, 6, 3.0, 1.0), (14, 22, -2.0, 0.8)],
    5: [(22, 22, -3.0, 1.0), (14, 6, 2.0, 0.8)],
    6: [(10, 18, 1.0, 1.0)],
    7: [(18, 10, -1.0, 1.0)],
    8: [(6, 6, 0.0, 1.0), (12, 12, 0.0, 0.9), (18, 18, 0.0, 0.8)],
    9: [(9, 21, 2.5, 1.0), (21, 9, -2.5, 0.7)],
}


def _render_ridge(img, t, f0, f1, curve, intensity, rng):
    """Draw one formant track across the time axis (one point per column)."""
    h, w = img.shape
    freqs = np.linspace(f0, f1, w) + curve * np.sin(np.pi * t)
    freqs += rng.normal(0.0, 0.2, w)
    rows = np.arange(h)[:, None]
    # Gaussian blob of bandwidth ~1.2 bins around each track point.
    profile = np.exp(-0.5 * ((rows - freqs[None, :]) / 1.2) ** 2)
    np.maximum(img, intensity * profile, out=img)


def render_keyword(label: int, rng: np.random.Generator) -> np.ndarray:
    """Render one 28x28 synthetic spectrogram for class ``label``."""
    if not 0 <= label < NUM_CLASSES:
        raise ValueError(f"label must be 0..11, got {label}")
    img = np.zeros((IMAGE_SIZE, IMAGE_SIZE))
    t = np.linspace(0.0, 1.0, IMAGE_SIZE)
    if label == 10:  # silence: only noise floor
        return add_noise(img, rng, NOISE * 0.5)
    if label == 11:  # unknown: 1-3 random ridges
        n_ridges = rng.integers(1, 4)
        for _ in range(n_ridges):
            f0, f1 = rng.uniform(4, 24, 2)
            _render_ridge(img, t, f0, f1, rng.uniform(-3, 3), rng.uniform(0.6, 1.0), rng)
        return add_noise(img, rng, NOISE)
    shift = rng.uniform(-0.6, 0.6)
    for f0, f1, curve, intensity in _RIDGES[label]:
        _render_ridge(
            img, t, f0 + shift, f1 + shift, curve * rng.uniform(0.92, 1.08),
            intensity * rng.uniform(0.92, 1.0), rng,
        )
    return add_noise(img, rng, NOISE)


def make_okg(n_samples: int = 2400, *, seed: int = 0,
             render: Optional[int] = None) -> Dataset:
    """Generate a synthetic OKG dataset of ``(N, 1, 28, 28)`` spectrograms.

    ``render`` keeps only the first ``render`` samples, bit-equal to the
    full draw's: every label is drawn first, then the patches one by one.
    """
    check_counts(n_samples, NUM_CLASSES)
    rng = np.random.default_rng(seed)
    labels = balanced_labels(n_samples, NUM_CLASSES, rng)[:render]
    x = np.zeros((len(labels), 1, IMAGE_SIZE, IMAGE_SIZE))
    for i, lab in enumerate(labels):
        x[i, 0] = render_keyword(int(lab), rng)
    return Dataset(x, labels.astype(np.int64), NUM_CLASSES, name="synth-okg")
