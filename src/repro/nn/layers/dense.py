"""Fully connected layers: plain dense and cosine-normalized dense.

The cosine-normalized variant implements the normalization step of RAD
(Section III-A of the paper, after Luo et al., ICANN'18): the dot product is
replaced by cosine similarity so pre-activations are guaranteed to lie in
``[-1, 1]``, which is what lets ACE run the layer in Q15 without overflow.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.initializers import he_normal, zeros
from repro.nn.module import Layer, Parameter


class Dense(Layer):
    """Affine layer ``y = x @ W.T + b`` with input shape ``(N, in_features)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ConfigurationError("Dense dimensions must be positive")
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            he_normal(rng, (out_features, in_features), fan_in=in_features),
            name="dense.weight",
        )
        self.bias = Parameter(zeros(out_features), name="dense.bias")
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ConfigurationError(
                f"Dense expects (N, {self.in_features}), got {x.shape}"
            )
        self._x = x
        return x @ self.weight.data.T + self.bias.data

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise ConfigurationError("backward called before forward")
        self.weight.grad += grad_out.T @ self._x
        self.weight.apply_mask()
        self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.data

    def parameters(self) -> List[Parameter]:
        return [self.weight, self.bias]

    def output_shape(self, input_shape):
        return (self.out_features,)

    def __repr__(self) -> str:
        return f"Dense({self.in_features} -> {self.out_features})"


class CosineDense(Layer):
    """Cosine-normalized dense layer: ``y_i = g * (w_i . x) / (|w_i| |x|)``.

    ``g`` is a learnable per-unit gain initialized to 1; with ``g`` clamped
    by the RAD pipeline to ``<= 1`` the outputs stay inside ``[-1, 1]``.
    """

    EPS = 1e-8

    def __init__(self, in_features: int, out_features: int) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ConfigurationError("CosineDense dimensions must be positive")
        rng = np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            he_normal(rng, (out_features, in_features), fan_in=in_features),
            name="cosine.weight",
        )
        self.gain = Parameter(np.ones(out_features), name="cosine.gain")
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ConfigurationError(
                f"CosineDense expects (N, {self.in_features}), got {x.shape}"
            )
        w = self.weight.data
        x_norm = np.linalg.norm(x, axis=1, keepdims=True) + self.EPS  # (N, 1)
        w_norm = np.linalg.norm(w, axis=1) + self.EPS  # (O,)
        dots = x @ w.T  # (N, O)
        cos = dots / (x_norm * w_norm)
        self._cache = (x, x_norm, w_norm, dots, cos)
        return cos * self.gain.data

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ConfigurationError("backward called before forward")
        x, x_norm, w_norm, dots, cos = self._cache
        w = self.weight.data
        g = self.gain.data

        self.gain.grad += (grad_out * cos).sum(axis=0)
        gc = grad_out * g  # dL/dcos, (N, O)

        denom = x_norm * w_norm  # (N, O) by broadcast
        # dcos/dw_i = x / (|x||w_i|) - dots * w_i / (|x| |w_i|^3)
        self.weight.grad += (gc / denom).T @ x
        coeff = (gc * dots / x_norm).sum(axis=0) / (w_norm ** 3)  # (O,)
        self.weight.grad -= coeff[:, None] * w
        self.weight.apply_mask()

        # dcos/dx = w_i / (|x||w_i|) - dots * x / (|x|^3 |w_i|)
        grad_x = (gc / denom) @ w
        coeff_x = (gc * dots / w_norm).sum(axis=1, keepdims=True) / (x_norm ** 3)
        grad_x -= coeff_x * x
        return grad_x

    def parameters(self) -> List[Parameter]:
        return [self.weight, self.gain]

    def output_shape(self, input_shape):
        return (self.out_features,)

    def __repr__(self) -> str:
        return f"CosineDense({self.in_features} -> {self.out_features})"
