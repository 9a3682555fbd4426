"""Layer fusion for deployment.

:func:`fuse_batchnorm` folds trained BatchNorm layers into the directly
preceding Conv2D/Dense weights (standard conv-BN fusion), and drops
Dropout layers, producing a model whose eval-mode function is identical
but which contains only device-quantizable layers.
"""

from __future__ import annotations

from typing import List


from repro.errors import ConfigurationError
from repro.nn.layers.batchnorm import BatchNorm1d, BatchNorm2d
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.dense import Dense
from repro.nn.layers.dropout import Dropout
from repro.nn.model import Sequential


def _fold_into_conv(conv: Conv2D, bn: BatchNorm2d) -> None:
    if bn.num_features != conv.out_channels:
        raise ConfigurationError(
            f"BatchNorm2d({bn.num_features}) does not match "
            f"Conv2D out_channels={conv.out_channels}"
        )
    scale, shift = bn.folded_scale_shift()
    conv.weight.data *= scale[:, None, None, None]
    conv.bias.data *= scale
    conv.bias.data += shift
    if conv.weight.mask is not None:
        conv.weight.apply_mask()


def _fold_into_dense(dense: Dense, bn: BatchNorm1d) -> None:
    if bn.num_features != dense.out_features:
        raise ConfigurationError(
            f"BatchNorm1d({bn.num_features}) does not match "
            f"Dense out_features={dense.out_features}"
        )
    scale, shift = bn.folded_scale_shift()
    dense.weight.data *= scale[:, None]
    dense.bias.data *= scale
    dense.bias.data += shift


def fuse_batchnorm(model: Sequential) -> Sequential:
    """Return a new Sequential with BN folded and Dropout removed.

    The input model's layers are reused in place for non-fused layers
    (weights are shared, not copied); fused conv/dense layers have their
    parameters modified.  Only BN layers *immediately* following a
    Conv2D/Dense are fusable; any other placement raises.
    """
    fused: List = []
    i = 0
    layers = model.layers
    while i < len(layers):
        layer = layers[i]
        nxt = layers[i + 1] if i + 1 < len(layers) else None
        if isinstance(nxt, BatchNorm2d):
            if not isinstance(layer, Conv2D):
                raise ConfigurationError(
                    "BatchNorm2d must directly follow a Conv2D to be fused"
                )
            _fold_into_conv(layer, nxt)
            fused.append(layer)
            i += 2
            continue
        if isinstance(nxt, BatchNorm1d):
            if not isinstance(layer, Dense):
                raise ConfigurationError(
                    "BatchNorm1d must directly follow a Dense to be fused"
                )
            _fold_into_dense(layer, nxt)
            fused.append(layer)
            i += 2
            continue
        if isinstance(layer, (BatchNorm1d, BatchNorm2d)):
            raise ConfigurationError(
                "found a BatchNorm with no preceding conv/dense to fuse into"
            )
        if isinstance(layer, Dropout):
            i += 1
            continue
        fused.append(layer)
        i += 1
    return Sequential(fused, name=f"{model.name}-fused")
