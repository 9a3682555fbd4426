"""Classification metrics."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def accuracy(preds: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of exact matches."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ConfigurationError(
            f"shape mismatch: preds {preds.shape} vs labels {labels.shape}"
        )
    if preds.size == 0:
        raise ConfigurationError("cannot compute accuracy of empty arrays")
    return float(np.mean(preds == labels))
