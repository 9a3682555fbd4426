"""Elementwise activation layers."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.module import Layer


class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ConfigurationError("backward called before forward")
        return grad_out * self._mask


class HardClip(Layer):
    """Clamp activations into ``[-limit, limit]``.

    RAD's range normalization uses this during quantization-aware
    fine-tuning so training sees exactly the range the device can represent.
    """

    def __init__(self, limit: float = 1.0) -> None:
        super().__init__()
        if limit <= 0:
            raise ConfigurationError("clip limit must be positive")
        self.limit = float(limit)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._mask = np.abs(x) <= self.limit
        return np.clip(x, -self.limit, self.limit)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ConfigurationError("backward called before forward")
        return grad_out * self._mask

    def __repr__(self) -> str:
        return f"HardClip(±{self.limit})"
