"""Synthetic human-activity-recognition (HAR) windows.

Stands in for the UCI smartphone HAR dataset (Anguita et al., ESANN'13):
six activities, one accelerometer-magnitude channel, 121-sample windows.
Each class is characterized by a distinct mixture of base frequency, gait
amplitude, posture offset, and drift; samples add random phase, amplitude
variation, and sensor noise.

The window length (121) is chosen so the paper's HAR model dimensions work
out exactly: Conv 32x1x(1x12) over ``(1, 1, 121)`` gives ``32 x 110 = 3520``
features, matching the ``FC 3520x128`` layer of Table II.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.datasets.common import balanced_labels, check_counts
from repro.nn.data import Dataset

WINDOW = 121
NUM_CLASSES = 6
#: Sensor noise (sigma) added to every window.
NOISE = 0.06

ACTIVITY_NAMES = (
    "walking",
    "walking_upstairs",
    "walking_downstairs",
    "sitting",
    "standing",
    "laying",
)


@dataclass(frozen=True)
class _ActivityProfile:
    base_freq: float  # cycles per window
    amplitude: float
    offset: float
    drift: float
    harmonic: float  # relative strength of the 2nd harmonic


_PROFILES = {
    0: _ActivityProfile(base_freq=6.0, amplitude=0.55, offset=0.05, drift=0.0, harmonic=0.35),
    1: _ActivityProfile(base_freq=4.5, amplitude=0.70, offset=0.12, drift=0.15, harmonic=0.55),
    2: _ActivityProfile(base_freq=7.5, amplitude=0.80, offset=-0.10, drift=-0.15, harmonic=0.25),
    3: _ActivityProfile(base_freq=0.8, amplitude=0.06, offset=0.35, drift=0.0, harmonic=0.10),
    4: _ActivityProfile(base_freq=1.2, amplitude=0.05, offset=0.55, drift=0.0, harmonic=0.05),
    5: _ActivityProfile(base_freq=0.4, amplitude=0.03, offset=-0.50, drift=0.0, harmonic=0.02),
}


def render_window(activity: int, rng: np.random.Generator) -> np.ndarray:
    """One synthetic accelerometer window for ``activity`` (shape (121,))."""
    if activity not in _PROFILES:
        raise ValueError(f"activity must be 0..5, got {activity}")
    prof = _PROFILES[activity]
    t = np.linspace(0.0, 1.0, WINDOW)
    phase = rng.uniform(0, 2 * np.pi)
    amp = prof.amplitude * rng.uniform(0.8, 1.2)
    freq = prof.base_freq * rng.uniform(0.9, 1.1)
    sig = amp * np.sin(2 * np.pi * freq * t + phase)
    sig += prof.harmonic * amp * np.sin(4 * np.pi * freq * t + 2 * phase)
    sig += prof.offset * rng.uniform(0.9, 1.1)
    sig += prof.drift * t
    sig += rng.normal(0.0, NOISE, WINDOW)
    return np.clip(sig, -0.999, 0.999)


def make_har(n_samples: int = 1800, *, seed: int = 0,
             render: Optional[int] = None) -> Dataset:
    """Generate a synthetic HAR dataset of ``(N, 1, 1, 121)`` windows.

    ``render`` keeps only the first ``render`` samples, bit-equal to the
    full draw's: every label is drawn first, then the windows one by one.
    """
    check_counts(n_samples, NUM_CLASSES)
    rng = np.random.default_rng(seed)
    labels = balanced_labels(n_samples, NUM_CLASSES, rng)[:render]
    x = np.zeros((len(labels), 1, 1, WINDOW))
    for i, lab in enumerate(labels):
        x[i, 0, 0] = render_window(int(lab), rng)
    return Dataset(x, labels.astype(np.int64), NUM_CLASSES, name="synth-har")
