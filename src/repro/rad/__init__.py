"""RAD — resource-aware structured DNN training framework.

Three of the four components of Section III-A: compression (BCM via
:class:`repro.nn.BCMDense` plus ADMM structured pruning in
:mod:`repro.rad.admm`), normalization (:mod:`repro.rad.normalize`), and
fixed-point calculation (:mod:`repro.rad.quantize`), glued together by
:func:`repro.rad.run_rad`.  The fourth, architecture search, is not
reproduced: the model zoo (:mod:`repro.rad.zoo`) takes the paper's printed
block sizes (``PAPER_BLOCKS``).
"""

from repro.rad.admm import ADMMPruner, PruneSpec
from repro.rad.normalize import equalize_ranges, layer_output_peaks
from repro.rad.pipeline import PAPER_PRUNE, PAPER_PRUNE_CONV, RADConfig, RADResult, run_rad
from repro.rad.prune import channel_mask, filter_mask, project, structured_mask
from repro.rad.quantize import (
    BCM_MODES,
    QuantBCM,
    QuantConv,
    QuantDense,
    QuantFlatten,
    QuantPool,
    QuantReLU,
    QuantizedModel,
    quantize_model,
)
from repro.rad.resources import DeviceBudget, ModelResources, analyze, check_fits
from repro.rad.zoo import (
    INPUT_SHAPES,
    NUM_CLASSES,
    PAPER_BLOCKS,
    build_har,
    build_mnist,
    build_model,
    build_okg,
)

__all__ = [
    "ADMMPruner",
    "BCM_MODES",
    "DeviceBudget",
    "INPUT_SHAPES",
    "ModelResources",
    "NUM_CLASSES",
    "PAPER_BLOCKS",
    "PAPER_PRUNE",
    "PAPER_PRUNE_CONV",
    "PruneSpec",
    "QuantBCM",
    "QuantConv",
    "QuantDense",
    "QuantFlatten",
    "QuantPool",
    "QuantReLU",
    "QuantizedModel",
    "RADConfig",
    "RADResult",
    "analyze",
    "build_har",
    "build_mnist",
    "build_model",
    "build_okg",
    "channel_mask",
    "check_fits",
    "equalize_ranges",
    "filter_mask",
    "layer_output_peaks",
    "project",
    "quantize_model",
    "run_rad",
    "structured_mask",
]
