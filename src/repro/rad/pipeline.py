"""The end-to-end RAD pipeline: train -> prune -> normalize -> quantize.

Implements Figure 1's RAD box: given a task and its dataset, produce a
device-ready :class:`~repro.rad.quantize.QuantizedModel` together with the
float model, accuracy records, and resource footprints (Table II rows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.data import Dataset
from repro.nn.model import Sequential, evaluate_accuracy, fit
from repro.nn.optim import Adam
from repro.rad.admm import ADMMPruner, PruneSpec
from repro.rad.normalize import equalize_ranges
from repro.rad.quantize import QuantizedModel, quantize_model
from repro.rad.resources import DeviceBudget, ModelResources, check_fits
from repro.rad.zoo import INPUT_SHAPES, build_model

#: Structured-pruning targets per task by *conv ordinal* (0 = first conv),
#: matching Table II: MNIST prunes its second conv layer 2x; HAR/OKG rely
#: on BCM.  Ordinals are resolved to layer indices at run time so optional
#: BatchNorm layers do not shift the target.
PAPER_PRUNE_CONV = {
    "mnist": {1: PruneSpec(keep_ratio=0.5, kind="filter")},
    "har": {},
    "okg": {},
}

#: Backwards-compatible view as layer indices of the BN-free backbones.
PAPER_PRUNE = {"mnist": {3: PruneSpec(keep_ratio=0.5, kind="filter")}, "har": {}, "okg": {}}


def _resolve_conv_ordinals(model: Sequential, by_ordinal) -> Dict[int, PruneSpec]:
    """Map conv-ordinal prune specs to layer indices of ``model``."""
    from repro.nn.layers import Conv2D

    conv_indices = [i for i, l in enumerate(model.layers) if isinstance(l, Conv2D)]
    resolved = {}
    for ordinal, spec in by_ordinal.items():
        if ordinal >= len(conv_indices):
            raise ConfigurationError(
                f"prune target conv #{ordinal} but model has only "
                f"{len(conv_indices)} conv layers"
            )
        resolved[conv_indices[ordinal]] = spec
    return resolved


@dataclass
class RADConfig:
    """Hyperparameters of one RAD run."""

    task: str
    bcm_blocks: object = "paper"  # "paper" | None | tuple of ints
    prune: Optional[Dict[int, PruneSpec]] = None  # None -> paper defaults
    epochs: int = 8
    admm_iterations: int = 2
    admm_epochs: int = 2
    finetune_epochs: int = 3
    lr: float = 1e-3  # Adam step size for the main/finetune phases
    batch_size: int = 32
    seed: int = 0
    equalize: bool = True
    headroom: float = 1.25
    bcm_mode: str = "stage"
    batchnorm: bool = False  # train with BN, fuse before quantization

    def __post_init__(self) -> None:
        if self.task not in INPUT_SHAPES:
            raise ConfigurationError(f"unknown task {self.task!r}")
        if self.epochs <= 0:
            raise ConfigurationError("epochs must be positive")


@dataclass
class RADResult:
    """Everything RAD produces for one model."""

    config: RADConfig
    model: Sequential
    quantized: QuantizedModel
    resources: ModelResources
    float_accuracy: float
    quantized_accuracy: float
    train_history: List[float] = field(default_factory=list)
    admm_residuals: List[float] = field(default_factory=list)


def run_rad(config: RADConfig, train: Dataset, test: Dataset) -> RADResult:
    """Execute the full RAD pipeline and return the deployable model,
    checked against the MSP430FR5994's :class:`DeviceBudget`."""
    input_shape = INPUT_SHAPES[config.task]
    rng = np.random.default_rng(config.seed)
    model = build_model(
        config.task, config.bcm_blocks, rng=rng, batchnorm=config.batchnorm
    )

    # 1. Baseline training (Adam is robust across the three backbones).
    history = fit(
        model,
        train.x,
        train.y,
        epochs=config.epochs,
        batch_size=config.batch_size,
        optimizer=Adam(model.parameters(), lr=config.lr),
        rng=np.random.default_rng(config.seed + 1),
    )

    # 2. ADMM structured pruning of CONV layers (if configured).
    if config.prune is not None:
        prune = config.prune
    else:
        prune = _resolve_conv_ordinals(model, PAPER_PRUNE_CONV[config.task])
    residuals: List[float] = []
    if prune:
        pruner = ADMMPruner(model, prune)
        residuals = pruner.run(
            train.x,
            train.y,
            admm_iterations=config.admm_iterations,
            epochs_per_iteration=config.admm_epochs,
            lr=0.01,  # the ADMM inner solver uses momentum SGD
            batch_size=config.batch_size,
            rng=np.random.default_rng(config.seed + 2),
        )
        pruner.finalize()
        # 3. Masked fine-tuning recovers the pruning loss.
        history += fit(
            model,
            train.x,
            train.y,
            epochs=config.finetune_epochs,
            batch_size=config.batch_size,
            optimizer=Adam(model.parameters(), lr=config.lr / 2),
            rng=np.random.default_rng(config.seed + 3),
        )

    # 4. Deployment fusion: fold BatchNorm into conv/dense weights so the
    #    model contains only device-quantizable layers.
    eval_model = model
    if config.batchnorm:
        from repro.nn.fuse import fuse_batchnorm

        model.train_mode(False)
        eval_model = fuse_batchnorm(model)
        eval_model.train_mode(False)

    # 5. Normalization: keep ranges representable on the 16-bit grid.
    calib = train.x[: min(128, len(train.x))]
    if config.equalize:
        equalize_ranges(eval_model, calib)

    # 6. Resource check against the device budget.
    resources = check_fits(eval_model, input_shape, DeviceBudget())

    # 7. Fixed-point quantization with range calibration.
    quantized = quantize_model(
        eval_model,
        input_shape,
        calib,
        headroom=config.headroom,
        bcm_mode=config.bcm_mode,
        name=config.task,
    )

    eval_model.train_mode(False)
    float_acc = evaluate_accuracy(eval_model, test.x, test.y)
    q_preds = quantized.predict(test.x)
    quant_acc = float(np.mean(q_preds == test.y))
    return RADResult(
        config=config,
        model=eval_model,
        quantized=quantized,
        resources=resources,
        float_accuracy=float_acc,
        quantized_accuracy=quant_acc,
        train_history=history,
        admm_residuals=residuals,
    )
