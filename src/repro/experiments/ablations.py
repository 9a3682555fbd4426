"""Ablations of the system's design choices (DESIGN.md experiments A1-A5).

* A1 — overflow-aware scaling: run the BCM pipeline with Algorithm 1's
  protection on ("stage" / "prescale") and off ("none") and measure the
  saturation count and output corruption.
* A2 — circular buffers: activation memory of the two-buffer plan versus
  one buffer per layer.
* A3 — DMA versus CPU data movement: inference time/energy with the DMA
  engine disabled.
* A4 — FLEX's voltage-warning threshold: checkpoint energy versus
  rollback waste across v_warn settings.
* A5 — compression contribution: the same ACE runtime on the dense
  backbone versus the RAD-compressed model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.ace import AceRuntime, circular_plan, per_layer_plan
from repro.ace.runtime import _numel
from repro.experiments.common import TASKS, make_dataset, prepare_quantized
from repro.fixedpoint import OverflowMonitor
from repro.hw.board import msp430fr5994
from repro.sim import IntermittentMachine


# --- A1: overflow-aware computation -----------------------------------------


@dataclass
class OverflowAblationRow:
    mode: str
    overflow_events: int
    max_rel_error: float
    argmax_agreement: float


def run_overflow_ablation(task: str = "mnist", *, seed: int = 0,
                          n_samples: int = 32) -> Dict[str, OverflowAblationRow]:
    """Compare BCM scaling modes against the float forward pass."""
    from repro.rad.zoo import INPUT_SHAPES, build_model
    from repro.rad.quantize import quantize_model

    ds = make_dataset(task, max(n_samples, 16), seed=seed)
    model = build_model(task, rng=np.random.default_rng(seed))
    qmodel = quantize_model(model, INPUT_SHAPES[task], ds.x[:16], name=task)
    x = ds.x[:n_samples]
    ref = model.forward(x)
    rows = {}
    for mode in ("stage", "prescale", "none"):
        monitor = OverflowMonitor()
        got = qmodel.forward(x, monitor=monitor, bcm_mode=mode)
        denom = float(np.max(np.abs(ref))) or 1.0
        rows[mode] = OverflowAblationRow(
            mode=mode,
            overflow_events=monitor.total,
            max_rel_error=float(np.max(np.abs(got - ref))) / denom,
            argmax_agreement=float(
                np.mean(np.argmax(got, 1) == np.argmax(ref, 1))
            ),
        )
    return rows


# --- A2: circular buffer convolution ------------------------------------------


@dataclass
class BufferAblationRow:
    task: str
    circular_bytes: int
    per_layer_bytes: int

    @property
    def saving(self) -> float:
        return 1.0 - self.circular_bytes / self.per_layer_bytes


def run_buffer_ablation(tasks=TASKS, *, seed: int = 0) -> Dict[str, BufferAblationRow]:
    rows = {}
    for task in tasks:
        qmodel = prepare_quantized(task, seed=seed)
        io_sizes = [_numel(qmodel.input_shape)] + [
            _numel(layer.out_shape) for layer in qmodel.layers
        ]
        rows[task] = BufferAblationRow(
            task=task,
            circular_bytes=circular_plan(io_sizes).total_bytes,
            per_layer_bytes=per_layer_plan(io_sizes).total_bytes,
        )
    return rows


# --- A4: FLEX voltage-warning threshold --------------------------------------------


@dataclass
class VwarnAblationRow:
    v_warn: float
    completed: bool
    wall_time_s: float
    checkpoint_energy_j: float
    wasted_cycles: float
    reboots: int


def run_vwarn_ablation(
    task: str = "mnist",
    v_warns=(1.9, 2.2, 2.6, 3.0),
    *,
    seed: int = 0,
) -> Dict[float, VwarnAblationRow]:
    """Sweep FLEX's on-demand checkpoint trigger.

    A low threshold checkpoints late (risking rollback if the failure is
    not predicted); a high threshold checkpoints eagerly (paying snapshot
    energy long before it is needed).  The sweep exposes the trade-off
    the paper's voltage monitor design navigates.
    """
    from repro.experiments.common import make_dataset, paper_harvester, run_inference

    qmodel = prepare_quantized(task, seed=seed)
    x = make_dataset(task, 16, seed=seed).x[0]
    rows: Dict[float, VwarnAblationRow] = {}
    for v_warn in v_warns:
        r = run_inference(
            "ACE+FLEX", qmodel, x, harvester=paper_harvester(), v_warn=v_warn
        )
        rows[v_warn] = VwarnAblationRow(
            v_warn=v_warn,
            completed=r.completed,
            wall_time_s=r.wall_time_s,
            checkpoint_energy_j=r.checkpoint_energy_j,
            wasted_cycles=r.wasted_cycles,
            reboots=r.reboots,
        )
    return rows


# --- A3: DMA vs CPU data movement ----------------------------------------------


@dataclass
class DmaAblationRow:
    task: str
    dma_time_s: float
    cpu_time_s: float
    dma_energy_j: float
    cpu_energy_j: float


def run_dma_ablation(tasks=TASKS, *, seed: int = 0) -> Dict[str, DmaAblationRow]:
    rows = {}
    for task in tasks:
        qmodel = prepare_quantized(task, seed=seed)
        ds = make_dataset(task, 16, seed=seed)
        x = ds.x[0]
        results = {}
        for use_dma in (True, False):
            runtime = AceRuntime(qmodel, use_dma=use_dma)
            device = msp430fr5994()
            results[use_dma] = IntermittentMachine(device, runtime).run(x)
        rows[task] = DmaAblationRow(
            task=task,
            dma_time_s=results[True].wall_time_s,
            cpu_time_s=results[False].wall_time_s,
            dma_energy_j=results[True].energy_j,
            cpu_energy_j=results[False].energy_j,
        )
    return rows


# --- A5: compression contribution ------------------------------------------------


@dataclass
class CompressionAblationRow:
    task: str
    dense_time_s: float
    compressed_time_s: float
    dense_bytes: int
    compressed_bytes: int


def run_compression_ablation(task: str = "mnist", *, seed: int = 0) -> CompressionAblationRow:
    """Isolate RAD's contribution: the same accelerated runtime (ACE) on
    the dense backbone versus the RAD-compressed model.

    Only MNIST's dense backbone fits FRAM, so this ablation runs there;
    for HAR/OKG the dense model cannot even deploy — itself the result.
    """
    from repro.ace import AceRuntime

    dense = prepare_quantized(task, compressed=False, pruned=False, seed=seed)
    comp = prepare_quantized(task, compressed=True, pruned=True, seed=seed)
    x = make_dataset(task, 16, seed=seed).x[0]
    results = {}
    for label, qm in (("dense", dense), ("compressed", comp)):
        runtime = AceRuntime(qm, fram_budget_bytes=None)
        results[label] = IntermittentMachine(msp430fr5994(), runtime).run(x)
    return CompressionAblationRow(
        task=task,
        dense_time_s=results["dense"].wall_time_s,
        compressed_time_s=results["compressed"].wall_time_s,
        dense_bytes=dense.weight_bytes,
        compressed_bytes=comp.weight_bytes,
    )
