"""Inverted dropout (training-time regularization; identity at inference)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.module import Layer


class Dropout(Layer):
    """Zero each activation with probability ``p`` during training,
    scaling survivors by ``1/(1-p)`` so inference needs no correction."""

    def __init__(self, p: float = 0.5) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ConfigurationError(f"dropout p must be in [0, 1), got {p}")
        self.p = p
        self.rng = np.random.default_rng(0)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return np.asarray(grad_out)
        return np.asarray(grad_out) * self._mask

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"
