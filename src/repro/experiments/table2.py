"""Table II: model structures, compression settings, and accuracies.

Runs the full RAD pipeline (train -> ADMM prune -> normalize -> quantize)
per task and reports the layer inventory, per-layer compression, and the
float/quantized accuracies.  The paper reports 99% / 89% / 82% on real
MNIST / HAR / OKG; the synthetic stand-ins land in comparable bands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.experiments.common import ExperimentProfile, FAST, TASKS, make_dataset
from repro.nn.data import train_test_split
from repro.nn.layers import BCMDense, Conv2D
from repro.rad import RADConfig, RADResult, run_rad


@dataclass
class Table2Row:
    task: str
    structure: List[str]
    float_accuracy: float
    quantized_accuracy: float
    fram_bytes: int
    paper_accuracy: float


#: Accuracies printed in the paper's Table II.
PAPER_ACCURACY = {"mnist": 0.99, "har": 0.89, "okg": 0.82}


def _describe_structure(result: RADResult) -> List[str]:
    lines = []
    for layer in result.model.layers:
        if isinstance(layer, Conv2D):
            o, i, kh, kw = layer.weight.shape
            pruned = layer.weight.mask is not None
            tag = " [structured pruning 2x]" if pruned else ""
            lines.append(f"Conv {o}x{i}x{kh}x{kw}{tag}")
        elif isinstance(layer, BCMDense):
            lines.append(
                f"FC {layer.in_features}x{layer.out_features} "
                f"[BCM {layer.block_size}x]"
            )
        elif type(layer).__name__ == "Dense":
            lines.append(f"FC {layer.in_features}x{layer.out_features}")
    return lines


def run_table2(
    profile: ExperimentProfile = FAST,
    tasks=TASKS,
) -> Dict[str, Table2Row]:
    """Train + compress each task's model; returns per-task rows."""
    rows: Dict[str, Table2Row] = {}
    for task in tasks:
        ds = make_dataset(task, profile.n_samples, seed=profile.seed)
        train, test = train_test_split(
            ds.x, ds.y, ds.num_classes,
            rng=np.random.default_rng(profile.seed), name=task,
        )
        config = RADConfig(
            task=task,
            epochs=profile.epochs,
            admm_iterations=profile.admm_iterations,
            admm_epochs=profile.admm_epochs,
            finetune_epochs=profile.finetune_epochs,
            seed=profile.seed,
        )
        result = run_rad(config, train, test)
        rows[task] = Table2Row(
            task=task,
            structure=_describe_structure(result),
            float_accuracy=result.float_accuracy,
            quantized_accuracy=result.quantized_accuracy,
            fram_bytes=result.quantized.weight_bytes,
            paper_accuracy=PAPER_ACCURACY[task],
        )
    return rows
