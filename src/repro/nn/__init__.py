"""Self-contained numpy DNN training framework used by RAD.

Provides layer-level backprop (gradient-checked in tests), classic
optimizers, and a :class:`~repro.nn.model.Sequential` container with a
training loop whose hooks support ADMM-regularized pruning.
"""

from repro.nn.data import Dataset, train_test_split
from repro.nn.fuse import fuse_batchnorm
from repro.nn.layers import (
    BCMDense,
    BatchNorm1d,
    BatchNorm2d,
    Dropout,
    Conv2D,
    CosineDense,
    Dense,
    Flatten,
    HardClip,
    MaxPool2D,
    ReLU,
)
from repro.nn.losses import SoftmaxCrossEntropy, softmax
from repro.nn.metrics import accuracy
from repro.nn.model import Sequential, evaluate_accuracy, fit
from repro.nn.module import (
    Layer,
    Parameter,
    nonzero_parameter_count,
    parameter_count,
)
from repro.nn.optim import Adam, SGD

__all__ = [
    "Adam",
    "BCMDense",
    "BatchNorm1d",
    "BatchNorm2d",
    "Dropout",
    "fuse_batchnorm",
    "Conv2D",
    "CosineDense",
    "Dataset",
    "Dense",
    "Flatten",
    "HardClip",
    "Layer",
    "MaxPool2D",
    "Parameter",
    "ReLU",
    "SGD",
    "Sequential",
    "SoftmaxCrossEntropy",
    "accuracy",
    "evaluate_accuracy",
    "fit",
    "nonzero_parameter_count",
    "parameter_count",
    "softmax",
    "train_test_split",
]
