"""Layer and parameter abstractions for the numpy DNN framework.

The framework is deliberately minimal: a :class:`Layer` owns
:class:`Parameter` objects, implements ``forward`` and ``backward``
(layer-level backprop, no autograd tape), and exposes its parameters to the
optimizers in :mod:`repro.nn.optim`.  Gradient correctness of every layer is
pinned by numerical gradient checks in the test suite.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.errors import ConfigurationError


class Parameter:
    """A trainable tensor with its gradient and an optional pruning mask.

    The mask supports RAD's structured pruning: when set, it is applied
    multiplicatively to ``data`` on every forward pass (handled by the owning
    layer) and to ``grad`` after every backward pass, so masked weights stay
    exactly zero through further training.
    """

    def __init__(self, data: np.ndarray, name: str = "param") -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name
        self.mask: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def set_mask(self, mask: np.ndarray) -> None:
        """Install a binary pruning mask and immediately apply it."""
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != self.data.shape:
            raise ConfigurationError(
                f"mask shape {mask.shape} != parameter shape {self.data.shape}"
            )
        self.mask = mask
        self.data *= mask

    def apply_mask(self) -> None:
        """Re-zero masked entries of data and grad (no-op without a mask)."""
        if self.mask is not None:
            self.data *= self.mask
            self.grad *= self.mask

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.data.shape})"


class Layer:
    """Base class for all layers."""

    def __init__(self) -> None:
        self.training = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Propagate ``dL/d(output)`` to ``dL/d(input)``, accumulating
        parameter gradients along the way."""
        raise NotImplementedError

    def backward_params(self, grad_out: np.ndarray) -> None:
        """Accumulate parameter gradients only, for a caller that discards
        ``dL/d(input)`` (the first layer of a trained model).  Layers that
        can skip the input-gradient work override this; the default runs
        the full :meth:`backward`."""
        self.backward(grad_out)

    def parameters(self) -> List[Parameter]:
        """Trainable parameters of this layer (empty by default)."""
        return []

    def train_mode(self, flag: bool = True) -> None:
        self.training = flag

    def output_shape(self, input_shape):
        """Shape of the output given an input shape (both without batch dim).

        Subclasses override; the default assumes shape preservation.
        """
        return tuple(input_shape)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def __repr__(self) -> str:
        return self.__class__.__name__


def parameter_count(params: Iterable[Parameter]) -> int:
    """Total number of scalar weights across ``params``."""
    return sum(p.size for p in params)


def nonzero_parameter_count(params: Iterable[Parameter]) -> int:
    """Number of weights that survive pruning (mask-aware)."""
    total = 0
    for p in params:
        if p.mask is not None:
            total += int(np.count_nonzero(p.mask))
        else:
            total += p.size
    return total
