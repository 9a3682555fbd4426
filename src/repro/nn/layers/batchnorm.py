"""Batch normalization (1-D and 2-D).

BatchNorm cannot run on the device as-is (it would need float statistics),
but it trains better backbones; :func:`repro.nn.fuse.fuse_batchnorm` folds
trained BN layers into the preceding conv/dense weights so the deployed
model is BN-free — the standard production path to fixed-point inference.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.module import Layer, Parameter


class _BatchNormBase(Layer):
    """Shared machinery; subclasses define the reduction axes."""

    #: Running-statistics momentum and variance epsilon.
    momentum = 0.9
    eps = 1e-5

    def __init__(self, num_features: int) -> None:
        super().__init__()
        if num_features <= 0:
            raise ConfigurationError("num_features must be positive")
        self.num_features = num_features
        self.gamma = Parameter(np.ones(num_features), name="bn.gamma")
        self.beta = Parameter(np.zeros(num_features), name="bn.beta")
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self._cache = None

    def _axes(self, x: np.ndarray) -> Tuple[int, ...]:
        raise NotImplementedError

    def _shape(self, x: np.ndarray) -> Tuple[int, ...]:
        """Broadcast shape of per-feature vectors against ``x``."""
        raise NotImplementedError

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        axes = self._axes(x)
        shape = self._shape(x)
        if self.training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            )
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            )
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean.reshape(shape)) * inv_std.reshape(shape)
        self._cache = (x_hat, inv_std, axes, shape, x.shape)
        return self.gamma.data.reshape(shape) * x_hat + self.beta.data.reshape(shape)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ConfigurationError("backward called before forward")
        x_hat, inv_std, axes, shape, x_shape = self._cache
        g = np.asarray(grad_out, dtype=np.float64)
        self.gamma.grad += (g * x_hat).sum(axis=axes)
        self.beta.grad += g.sum(axis=axes)
        if not self.training:
            return g * (self.gamma.data * inv_std).reshape(shape)
        # Standard train-mode gradient through the batch statistics.
        m = g.size / self.num_features
        g_hat = g * self.gamma.data.reshape(shape)
        term1 = g_hat
        term2 = g_hat.sum(axis=axes, keepdims=True) / m
        term3 = x_hat * (g_hat * x_hat).sum(axis=axes, keepdims=True) / m
        return (term1 - term2 - term3) * inv_std.reshape(shape)

    def parameters(self) -> List[Parameter]:
        return [self.gamma, self.beta]

    def folded_scale_shift(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-feature (scale, shift) equivalent of this BN in eval mode:
        ``y = scale * x + shift``."""
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        scale = self.gamma.data * inv_std
        shift = self.beta.data - self.running_mean * scale
        return scale, shift


class BatchNorm1d(_BatchNormBase):
    """Batch normalization over ``(N, F)`` activations."""

    def _axes(self, x):
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ConfigurationError(
                f"BatchNorm1d expects (N, {self.num_features}), got {x.shape}"
            )
        return (0,)

    def _shape(self, x):
        return (1, self.num_features)

    def __repr__(self) -> str:
        return f"BatchNorm1d({self.num_features})"


class BatchNorm2d(_BatchNormBase):
    """Batch normalization over ``(N, C, H, W)`` activations (per channel)."""

    def _axes(self, x):
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ConfigurationError(
                f"BatchNorm2d expects (N, {self.num_features}, H, W), "
                f"got {x.shape}"
            )
        return (0, 2, 3)

    def _shape(self, x):
        return (1, self.num_features, 1, 1)

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features})"
