"""Optimizers: SGD (with momentum / weight decay) and Adam.

Both respect parameter pruning masks — after every step the masks are
re-applied so structurally pruned weights stay exactly zero.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.module import Parameter


class Optimizer:
    """Base optimizer holding a parameter list."""

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ConfigurationError("optimizer needs at least one parameter")
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def _finish(self) -> None:
        for p in self.params:
            p.apply_mask()


class SGD(Optimizer):
    """Stochastic gradient descent with classical momentum."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            v *= self.momentum
            v -= self.lr * p.grad
            p.data += v
        self._finish()


class Adam(Optimizer):
    """Adam with bias correction, at the usual betas and epsilon."""

    b1, b2 = 0.9, 0.999
    eps = 1e-8

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3) -> None:
        super().__init__(params, lr)
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bc1 = 1.0 - self.b1 ** self._t
        bc2 = 1.0 - self.b2 ** self._t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        self._finish()
