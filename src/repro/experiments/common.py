"""Shared experiment infrastructure.

Provides the standard testbed configuration (the paper's Section III-D):
an MSP430FR5994 device, a function-generator square wave feeding a 100 uF
capacitor, and the five runtime configurations of Figure 7.  Experiments
can run with an untrained-but-pruned model (``trained=False``) when only
cost *shapes* matter — execution cost depends on architecture and pruning
masks, not weight values — or with full RAD training for accuracy results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro import RUNTIME_ORDER, TASKS
from repro.ace import AceRuntime
from repro.baselines import BaseRuntime, SonicRuntime, TailsRuntime
from repro.datasets import make_har, make_mnist, make_okg
from repro.errors import ConfigurationError
from repro.flex import FlexRuntime
from repro.hw.board import msp430fr5994
from repro.nn.data import Dataset
from repro.power import Capacitor, EnergyHarvester, SquareWaveTrace, VoltageMonitor
from repro.rad import PAPER_PRUNE, filter_mask
from repro.rad.quantize import QuantizedModel, quantize_model
from repro.rad.zoo import INPUT_SHAPES, build_model
from repro.sim import RunResult, make_machine

_DATASET_MAKERS = {"mnist": make_mnist, "har": make_har, "okg": make_okg}


@dataclass(frozen=True)
class ExperimentProfile:
    """Workload sizes for an experiment run."""

    n_samples: int = 400
    epochs: int = 6
    admm_iterations: int = 2
    admm_epochs: int = 1
    finetune_epochs: int = 2
    seed: int = 0
    calib_n: int = 16


#: Small profile for tests and quick benchmark runs.
FAST = ExperimentProfile(n_samples=360, epochs=6, admm_iterations=1,
                         finetune_epochs=2)

#: Fuller profile: ``repro run table2 --full`` trains with it.
FULL = ExperimentProfile(n_samples=2400, epochs=12, admm_iterations=3,
                         admm_epochs=2, finetune_epochs=4, calib_n=64)


def make_dataset(task: str, n_samples: int, seed: int = 0, *,
                 render: Optional[int] = None) -> Dataset:
    """Build the synthetic dataset for a task.

    ``render`` keeps the first ``render`` samples only, rendering no
    others; they are bit-equal to the full dataset's.
    """
    if task not in _DATASET_MAKERS:
        raise ConfigurationError(f"unknown task {task!r}")
    return _DATASET_MAKERS[task](n_samples, seed=seed, render=render)


def prepare_quantized(
    task: str,
    *,
    compressed: bool = True,
    pruned: bool = True,
    seed: int = 0,
    calib_n: int = 16,
) -> QuantizedModel:
    """A quantized Table II model with paper pruning masks, untrained.

    Execution *cost* depends only on the architecture and the structured
    masks, so performance experiments (Fig 7/8, overhead) use this fast
    path; accuracy experiments (Table II) train via ``repro.rad.run_rad``.
    """
    blocks = "paper" if compressed else None
    model = build_model(task, blocks, rng=np.random.default_rng(seed))
    if pruned:
        for idx, spec in PAPER_PRUNE[task].items():
            layer = model.layers[idx]
            layer.weight.set_mask(filter_mask(layer.weight.data, spec.keep_ratio))
    ds = make_dataset(task, max(calib_n, 16), seed=seed)
    return quantize_model(
        model, INPUT_SHAPES[task], ds.x[:calib_n],
        name=f"{task}{'-rad' if compressed else '-dense'}",
    )


def paper_harvester() -> EnergyHarvester:
    """The testbed supply: function-generator square wave into 100 uF.

    5 mW at 30 % duty over 50 ms periods averages 1.5 mW — below the
    device's active draw, so execution outruns harvesting and brown-outs
    occur (the premise of the intermittent experiments).
    """
    return EnergyHarvester(SquareWaveTrace(5e-3, 0.05, 0.3), Capacitor(100e-6))


def make_runtime(name: str, qmodel: QuantizedModel):
    """Instantiate a runtime by its Figure 7 display name."""
    factory = {
        "BASE": BaseRuntime,
        "SONIC": SonicRuntime,
        "TAILS": TailsRuntime,
        "ACE": AceRuntime,
        "ACE+FLEX": FlexRuntime,
    }.get(name)
    if factory is None:
        raise ConfigurationError(f"unknown runtime {name!r}")
    return factory(qmodel)


def run_inference(
    runtime_name: str,
    qmodel: QuantizedModel,
    x: np.ndarray,
    *,
    harvester: Optional[EnergyHarvester] = None,
    v_warn: Optional[float] = None,
) -> RunResult:
    """One inference under continuous (``harvester=None``) or harvested
    power, on the reference engine.

    ``v_warn`` overrides FLEX's voltage-monitor warning threshold.
    """
    runtime = make_runtime(runtime_name, qmodel)
    device = msp430fr5994(supply=harvester)
    monitor = None
    if runtime.snapshot_on_warning and harvester is not None:
        if v_warn is None:
            monitor = VoltageMonitor(harvester)
        else:
            monitor = VoltageMonitor(harvester, v_warn=v_warn)
    machine = make_machine(device, runtime, monitor=monitor)
    return machine.run(x)


def run_all_runtimes(qmodel: QuantizedModel, x: np.ndarray) -> Dict[str, RunResult]:
    """Run every Figure 7 runtime on one sample under continuous power;
    returns name -> result."""
    return {name: run_inference(name, qmodel, x) for name in RUNTIME_ORDER}
