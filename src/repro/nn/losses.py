"""Loss functions with analytic gradients."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class SoftmaxCrossEntropy:
    """Softmax + cross entropy against integer class labels."""

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
        """Return ``(mean_loss, dL/dlogits)``."""
        logits = np.asarray(logits, dtype=np.float64)
        labels = np.asarray(labels)
        if logits.ndim != 2:
            raise ConfigurationError(f"logits must be (N, C), got {logits.shape}")
        n, c = logits.shape
        if labels.shape != (n,):
            raise ConfigurationError(
                f"labels must be ({n},), got {labels.shape}"
            )
        if labels.min() < 0 or labels.max() >= c:
            raise ConfigurationError("labels out of range for logits width")
        probs = softmax(logits)
        picked = probs[np.arange(n), labels]
        loss = float(-np.log(np.clip(picked, 1e-12, None)).mean())
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        return loss, grad / n

    def __call__(self, logits, labels):
        return self.forward(logits, labels)
