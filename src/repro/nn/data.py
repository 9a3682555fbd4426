"""Dataset container and batching utilities."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError


@dataclass
class Dataset:
    """Supervised dataset: features ``x`` and integer labels ``y``."""

    x: np.ndarray
    y: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ConfigurationError(
                f"x has {len(self.x)} samples but y has {len(self.y)}"
            )
        if self.num_classes <= 1:
            raise ConfigurationError("num_classes must be >= 2")
        y = np.asarray(self.y)
        if y.size and (y.min() < 0 or y.max() >= self.num_classes):
            raise ConfigurationError("labels out of range")

    def __len__(self) -> int:
        return len(self.x)

    @property
    def sample_shape(self) -> Tuple[int, ...]:
        return tuple(np.asarray(self.x).shape[1:])


def train_test_split(
    x: np.ndarray,
    y: np.ndarray,
    num_classes: int,
    *,
    rng: Optional[np.random.Generator] = None,
    name: str = "dataset",
) -> Tuple[Dataset, Dataset]:
    """Shuffle and split into train (80 %) and test (20 %) datasets."""
    rng = rng or np.random.default_rng(0)
    order = rng.permutation(len(x))
    n_test = max(1, int(len(x) * 0.2))
    test_idx, train_idx = order[:n_test], order[n_test:]
    return (
        Dataset(x[train_idx], y[train_idx], num_classes, f"{name}-train"),
        Dataset(x[test_idx], y[test_idx], num_classes, f"{name}-test"),
    )
