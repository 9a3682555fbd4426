"""Layer implementations."""

from repro.nn.layers.activations import HardClip, ReLU
from repro.nn.layers.batchnorm import BatchNorm1d, BatchNorm2d
from repro.nn.layers.bcm_dense import BCMDense
from repro.nn.layers.conv import Conv2D, col2im, im2col
from repro.nn.layers.dense import CosineDense, Dense
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.flatten import Flatten
from repro.nn.layers.pooling import MaxPool2D

__all__ = [
    "BCMDense",
    "BatchNorm1d",
    "BatchNorm2d",
    "Dropout",
    "Conv2D",
    "CosineDense",
    "Dense",
    "Flatten",
    "HardClip",
    "MaxPool2D",
    "ReLU",
    "col2im",
    "im2col",
]
