"""Weight initializers.

All initializers take an explicit :class:`numpy.random.Generator` so every
training run in the test suite and the benchmark harness is reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def he_normal(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """He (Kaiming) normal initialization, suited to ReLU networks."""
    if fan_in <= 0:
        raise ConfigurationError(f"fan_in must be positive, got {fan_in}")
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def zeros(shape) -> np.ndarray:
    """All-zero initialization (biases)."""
    return np.zeros(shape, dtype=np.float64)


def circulant_spectral(rng: np.random.Generator, p: int, q: int, k: int) -> np.ndarray:
    """Initialize BCM first-column weights ``(p, q, k)``.

    Each circulant block behaves like a dense ``k x k`` matrix with tied
    weights; the fan-in is ``q * k``, so ``sqrt(2 / (q * k))`` is the He
    scaling that preserves variance through the following ReLU.
    """
    if p <= 0 or q <= 0 or k <= 0:
        raise ConfigurationError("block grid dimensions must be positive")
    return rng.normal(0.0, np.sqrt(2.0 / (q * k)), size=(p, q, k))
