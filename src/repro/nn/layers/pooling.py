"""Max pooling.

The paper's models use non-overlapping 2x2 max pooling executed on the CPU
(Figure 3); this implementation supports any non-overlapping window whose
size divides the feature map.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.module import Layer


class MaxPool2D(Layer):
    """Non-overlapping max pooling over NCHW inputs."""

    def __init__(self, pool_size=2) -> None:
        super().__init__()
        if isinstance(pool_size, int):
            pool_size = (pool_size, pool_size)
        ph, pw = pool_size
        if ph <= 0 or pw <= 0:
            raise ConfigurationError("pool_size must be positive")
        self.pool_size = (ph, pw)
        self._cache: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4:
            raise ConfigurationError(f"MaxPool2D expects NCHW, got shape {x.shape}")
        n, c, h, w = x.shape
        ph, pw = self.pool_size
        if h % ph or w % pw:
            raise ConfigurationError(
                f"feature map {h}x{w} not divisible by pool {ph}x{pw}"
            )
        oh, ow = h // ph, w // pw
        windows = x.reshape(n, c, oh, ph, ow, pw)
        if (ph, pw) == (2, 2) and x.strides[2] >= x.strides[3]:
            # The bits of windows.max(axis=(3, 5)) at a fraction of its
            # cost: chained maxima over the four strided views in window
            # order.  numpy's reduce walks each window in memory order,
            # which is window order when rows are outer, as they are in
            # C order and in the channels-last views Conv2D returns.
            out = np.maximum(windows[:, :, :, 0, :, 0],
                             windows[:, :, :, 0, :, 1])
            np.maximum(out, windows[:, :, :, 1, :, 0], out=out)
            np.maximum(out, windows[:, :, :, 1, :, 1], out=out)
        else:
            out = windows.max(axis=(3, 5))
        # Record which element won each window for routing gradients.
        mask = windows == out[:, :, :, None, :, None]
        # Break ties deterministically: keep only the first max per window.
        flat = mask.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, ph * pw)
        first = np.cumsum(flat, axis=-1) == 1
        flat &= first
        mask = flat.reshape(n, c, oh, ow, ph, pw).transpose(0, 1, 2, 4, 3, 5)
        self._cache = (x.shape, mask)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ConfigurationError("backward called before forward")
        x_shape, mask = self._cache
        n, c, h, w = x_shape
        ph, pw = self.pool_size
        oh, ow = h // ph, w // pw
        grad = mask * grad_out[:, :, :, None, :, None]
        return grad.reshape(n, c, h, w)

    def output_shape(self, input_shape):
        c, h, w = input_shape
        ph, pw = self.pool_size
        if h % ph or w % pw:
            raise ConfigurationError(
                f"feature map {h}x{w} not divisible by pool {ph}x{pw}"
            )
        return (c, h // ph, w // pw)

    def __repr__(self) -> str:
        ph, pw = self.pool_size
        return f"MaxPool2D({ph}x{pw})"
