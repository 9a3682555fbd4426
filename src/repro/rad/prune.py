"""Structured-pruning projections.

Structured pruning removes whole filters or channels so the surviving
weight tensor keeps a regular (hardware-friendly) shape — no sparse indices
on device (Section II of the paper).  These projections compute the binary
masks used both by the ADMM regularizer (projection of ``W + U`` onto the
constraint set) and by the final hard prune.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

VALID_KINDS = ("filter", "channel")


def _validate(weight: np.ndarray, keep_ratio: float) -> None:
    if weight.ndim != 4:
        raise ConfigurationError(
            f"structured pruning expects conv weights (O, I, kh, kw), "
            f"got shape {weight.shape}"
        )
    if not 0.0 < keep_ratio <= 1.0:
        raise ConfigurationError(f"keep_ratio must be in (0, 1], got {keep_ratio}")


def filter_mask(weight: np.ndarray, keep_ratio: float) -> np.ndarray:
    """Keep the ``keep_ratio`` fraction of output filters with largest L2
    norm; zero the rest.  Returns a binary mask of ``weight``'s shape."""
    w = np.asarray(weight, dtype=np.float64)
    _validate(w, keep_ratio)
    n_filters = w.shape[0]
    n_keep = max(1, int(round(n_filters * keep_ratio)))
    norms = np.sqrt((w ** 2).sum(axis=(1, 2, 3)))
    keep = np.argsort(-norms)[:n_keep]
    mask = np.zeros_like(w)
    mask[keep] = 1.0
    return mask


def channel_mask(weight: np.ndarray, keep_ratio: float) -> np.ndarray:
    """Keep the strongest input channels (analogous to :func:`filter_mask`)."""
    w = np.asarray(weight, dtype=np.float64)
    _validate(w, keep_ratio)
    n_channels = w.shape[1]
    n_keep = max(1, int(round(n_channels * keep_ratio)))
    norms = np.sqrt((w ** 2).sum(axis=(0, 2, 3)))
    keep = np.argsort(-norms)[:n_keep]
    mask = np.zeros_like(w)
    mask[:, keep] = 1.0
    return mask


def structured_mask(weight: np.ndarray, keep_ratio: float, kind: str = "filter") -> np.ndarray:
    """Dispatch to the requested structured-pruning projection."""
    if kind not in VALID_KINDS:
        raise ConfigurationError(f"kind must be one of {VALID_KINDS}, got {kind!r}")
    if kind == "filter":
        return filter_mask(weight, keep_ratio)
    return channel_mask(weight, keep_ratio)


def project(weight: np.ndarray, keep_ratio: float, kind: str = "filter") -> np.ndarray:
    """Project ``weight`` onto the structured-sparsity constraint set
    (the Euclidean projection simply zeroes the pruned groups)."""
    return np.asarray(weight) * structured_mask(weight, keep_ratio, kind)
