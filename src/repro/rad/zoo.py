"""The paper's three DNN models (Table II), parameterized.

Each builder returns an uncompressed ("backbone") or BCM-compressed model:

* MNIST:  Conv 6x1x5x5 -> pool -> Conv 16x6x5x5 (structured-pruned 2x)
          -> pool -> FC 256x256 (BCM 128x) -> FC 256x10
* HAR:    Conv 32x1x(1x12) -> FC 3520x128 (BCM 128) -> FC 128x64 (BCM 64)
          -> FC 64x6
* OKG:    Conv 6x1x5x5 -> FC 3456x512 (BCM 256) -> FC 512x256 (BCM 128)
          -> FC 256x128 (BCM 64) -> FC 128x12

The ``bcm_blocks`` arguments default to the paper's Table II settings;
passing ``None`` produces the dense baseline that SONIC/TAILS run.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.nn import (
    BCMDense,
    BatchNorm2d,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    ReLU,
    Sequential,
)

#: Input tensor shapes (channel-first, no batch dim) per task.
INPUT_SHAPES = {
    "mnist": (1, 28, 28),
    "har": (1, 1, 121),
    "okg": (1, 28, 28),
}

#: Number of classes per task.
NUM_CLASSES = {"mnist": 10, "har": 6, "okg": 12}

#: Paper Table II BCM block sizes per task, in FC-layer order.
PAPER_BLOCKS = {"mnist": (128,), "har": (128, 64), "okg": (256, 128, 64)}


def _fc(in_f: int, out_f: int, block: Optional[int], rng) -> object:
    """A dense or BCM FC layer depending on ``block``."""
    if block is None:
        return Dense(in_f, out_f, rng=rng)
    return BCMDense(in_f, out_f, block, rng=rng)


def build_mnist(
    bcm_blocks: Optional[Tuple[int, ...]],
    *,
    rng: Optional[np.random.Generator],
    batchnorm: bool,
) -> Sequential:
    """The MNIST model of Table II (LeNet-style).

    ``batchnorm=True`` inserts BN after each conv for training stability;
    the RAD pipeline fuses it away before quantization.
    """
    rng = rng or np.random.default_rng(0)
    blocks = _pad_blocks(bcm_blocks, 1)
    layers = [Conv2D(1, 6, 5, rng=rng)]          # 28 -> 24
    if batchnorm:
        layers.append(BatchNorm2d(6))
    layers += [ReLU(), MaxPool2D(2),             # 24 -> 12
               Conv2D(6, 16, 5, rng=rng)]        # 12 -> 8 (pruned 2x)
    if batchnorm:
        layers.append(BatchNorm2d(16))
    layers += [
        ReLU(),
        MaxPool2D(2),                            # 8 -> 4; 16*4*4 = 256
        Flatten(),
        _fc(256, 256, blocks[0], rng),           # BCM 128x in the paper
        ReLU(),
        Dense(256, 10, rng=rng),
    ]
    return Sequential(layers, name="mnist")


def build_har(
    bcm_blocks: Optional[Tuple[int, ...]],
    *,
    rng: Optional[np.random.Generator],
    batchnorm: bool,
) -> Sequential:
    """The HAR model of Table II (1-D conv front end)."""
    rng = rng or np.random.default_rng(0)
    blocks = _pad_blocks(bcm_blocks, 2)
    layers = [Conv2D(1, 32, (1, 12), rng=rng)]  # (1,121) -> (32,1,110)
    if batchnorm:
        layers.append(BatchNorm2d(32))
    layers += [
        ReLU(),
        Flatten(),
        _fc(3520, 128, blocks[0], rng),   # BCM 128x
        ReLU(),
        _fc(128, 64, blocks[1], rng),     # BCM 64x
        ReLU(),
        Dense(64, 6, rng=rng),
    ]
    return Sequential(layers, name="har")


def build_okg(
    bcm_blocks: Optional[Tuple[int, ...]],
    *,
    rng: Optional[np.random.Generator],
    batchnorm: bool,
) -> Sequential:
    """The OKG keyword-spotting model of Table II."""
    rng = rng or np.random.default_rng(0)
    blocks = _pad_blocks(bcm_blocks, 3)
    layers = [Conv2D(1, 6, 5, rng=rng)]      # 28 -> 24; 6*24*24 = 3456
    if batchnorm:
        layers.append(BatchNorm2d(6))
    layers += [
        ReLU(),
        Flatten(),
        _fc(3456, 512, blocks[0], rng),   # BCM 256x
        ReLU(),
        _fc(512, 256, blocks[1], rng),    # BCM 128x
        ReLU(),
        _fc(256, 128, blocks[2], rng),    # BCM 64x
        ReLU(),
        Dense(128, 12, rng=rng),
    ]
    return Sequential(layers, name="okg")


_BUILDERS = {"mnist": build_mnist, "har": build_har, "okg": build_okg}


def build_model(
    task: str,
    bcm_blocks="paper",
    *,
    rng: Optional[np.random.Generator] = None,
    batchnorm: bool = False,
) -> Sequential:
    """Build a Table II model by task name.

    ``bcm_blocks`` may be ``"paper"`` (Table II settings), ``None`` (dense
    baseline), or an explicit tuple of block sizes for the compressible FC
    layers in order.
    """
    if task not in _BUILDERS:
        raise ConfigurationError(
            f"unknown task {task!r}; expected one of {sorted(_BUILDERS)}"
        )
    if isinstance(bcm_blocks, str):
        if bcm_blocks != "paper":
            raise ConfigurationError(f"unknown bcm_blocks preset {bcm_blocks!r}")
        bcm_blocks = PAPER_BLOCKS[task]
    return _BUILDERS[task](bcm_blocks, rng=rng, batchnorm=batchnorm)


def _pad_blocks(blocks, expected: int):
    if blocks is None:
        return (None,) * expected
    blocks = tuple(blocks)
    if len(blocks) != expected:
        raise ConfigurationError(
            f"expected {expected} block sizes, got {len(blocks)}"
        )
    return blocks
