"""ACE execution planner: quantized layers -> atom programs.

Implements the acceleration-aware dataflow of Section III-B / Figure 3:
inputs and kernels are DMA-staged into SRAM, vector work runs on the LEA,
outputs stream back to the FRAM circular buffers; max-pool and ReLU run
on the CPU directly.  The same planner serves three runtimes:

* plain ACE      — ``commit=False`` everywhere (no intermittence support);
* ACE+FLEX       — commits with FLEX state-bit granularity, including
  inside the BCM FFT pipeline;
* TAILS          — commits at vector-op writebacks only (loop indices),
  so mid-pipeline state is not durable (Figure 6, left).

Costs reference :mod:`repro.hw.lea`, :mod:`repro.hw.dma`,
:mod:`repro.hw.cpu`; numerics live in :mod:`repro.rad.quantize` and are
not re-executed here.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.hw import constants as C
from repro.hw.cpu import alu_cycles, copy_cycles
from repro.hw.dma import transfer_cycles
from repro.hw.lea import op_cycles
from repro.rad.quantize import (
    QuantBCM,
    QuantConv,
    QuantDense,
    QuantFlatten,
    QuantPool,
    QuantReLU,
    QuantizedModel,
)
from repro.sim.atoms import Atom


@dataclass(frozen=True)
class PlanConfig:
    """Planner knobs shared by ACE / FLEX / TAILS programs."""

    use_dma: bool = True  # False -> CPU-driven copies (ablation A3)
    commit: bool = False  # emit progress commits
    commit_words: int = C.TAILS_COMMIT_WORDS
    bcm_stage_commits: bool = False  # FLEX's b0-b2 state bits inside BCM
    dense_group: int = 8  # FC neurons per writeback group
    #: Conv input staging: "row" fetches each input row-band once per output
    #: row (ACE's acceleration-aware dataflow, Figure 3); "window" re-fetches
    #: the full window per output pixel (TAILS's per-vector-op staging).
    conv_staging: str = "row"
    #: Task-transition cycles added to every atom (the task-based runtimes
    #: pay channel/queue management per operation; ACE is a single program).
    task_overhead_cycles: float = 0.0
    #: Bulk LEA invocation (Figure 4): one command block covers a whole row
    #: / neuron group, paying the setup cost once.  TAILS issues one task
    #: per vector operation and pays it every time.
    batched_ops: bool = True
    #: Loop-index checkpoint granularity for CPU elementwise layers
    #: (ReLU / max pool): elements per committed chunk.
    elementwise_chunk: int = 64


def _move(label: str, layer: int, words: int, cfg: PlanConfig,
          *, reads_fram: bool = True, writes_fram: bool = False,
          volatile_words: int = 0, commit: bool = False,
          commit_words: int = 0) -> Atom:
    """A data-movement atom (DMA if enabled, else CPU copy)."""
    if cfg.use_dma:
        component, cycles = "dma", transfer_cycles(words)
    else:
        component, cycles = "cpu", copy_cycles(words)
    return Atom(
        label=label,
        layer=layer,
        component=component,
        cycles=cycles + cfg.task_overhead_cycles,
        fram_reads=words if reads_fram else 0,
        fram_writes=words if writes_fram else 0,
        sram_accesses=words,
        purpose="data",
        commit=commit,
        commit_words=commit_words,
        volatile_words=volatile_words,
    )


def conv_atoms(layer: QuantConv, idx: int, cfg: PlanConfig) -> List[Atom]:
    """Per-output-channel, per-output-row MAC plan (Figure 4's bulk MAC)."""
    if cfg.conv_staging not in ("row", "window"):
        raise ConfigurationError(
            f"conv_staging must be 'row' or 'window', got {cfg.conv_staging!r}"
        )
    out_c, in_c, kh, kw = layer.weight.shape
    vec = in_c * kh * kw
    _, out_h, out_w = layer.out_shape
    stride = layer.stride
    if cfg.conv_staging == "row":
        # Stage the kh-row input band once; windows slide inside SRAM.
        in_words_per_row = in_c * kh * ((out_w - 1) * stride + kw)
    else:
        # Re-fetch the full window per output pixel.
        in_words_per_row = out_w * vec
    active = [o for o in range(out_c) if np.any(layer.weight[o])]
    atoms: List[Atom] = []
    for o in active:
        atoms.append(
            _move(f"conv{idx}.ch{o}.kernel", idx, vec, cfg)
        )
        for row in range(out_h):
            atoms.append(
                _move(
                    f"conv{idx}.ch{o}.row{row}.in",
                    idx,
                    in_words_per_row,
                    cfg,
                    volatile_words=vec,
                )
            )
            if cfg.batched_ops:
                mac_cycles = C.LEA_SETUP_CYCLES + out_w * (
                    op_cycles("mac", vec) - C.LEA_SETUP_CYCLES
                )
            else:
                mac_cycles = out_w * op_cycles("mac", vec)
            atoms.append(
                Atom(
                    label=f"conv{idx}.ch{o}.row{row}.mac",
                    layer=idx,
                    component="lea",
                    cycles=mac_cycles + cfg.task_overhead_cycles,
                    sram_accesses=out_w * vec,
                    volatile_words=out_w,
                )
            )
            atoms.append(
                _move(
                    f"conv{idx}.ch{o}.row{row}.out",
                    idx,
                    out_w,
                    cfg,
                    reads_fram=False,
                    writes_fram=True,
                    commit=cfg.commit,
                    commit_words=cfg.commit_words,
                )
            )
    return atoms


def dense_atoms(layer: QuantDense, idx: int, cfg: PlanConfig) -> List[Atom]:
    """FC plan: group output neurons, one LEA MAC per neuron."""
    out_f, in_f = layer.weight.shape
    atoms: List[Atom] = []
    group = max(1, cfg.dense_group)
    for start in range(0, out_f, group):
        g = min(group, out_f - start)
        atoms.append(
            _move(f"fc{idx}.g{start}.w", idx, g * in_f, cfg, volatile_words=in_f)
        )
        if cfg.batched_ops:
            mac_cycles = C.LEA_SETUP_CYCLES + g * (
                op_cycles("mac", in_f) - C.LEA_SETUP_CYCLES
            )
        else:
            mac_cycles = g * op_cycles("mac", in_f)
        atoms.append(
            Atom(
                label=f"fc{idx}.g{start}.mac",
                layer=idx,
                component="lea",
                cycles=mac_cycles + cfg.task_overhead_cycles,
                sram_accesses=g * in_f,
                volatile_words=g,
            )
        )
        atoms.append(
            _move(
                f"fc{idx}.g{start}.out",
                idx,
                g,
                cfg,
                reads_fram=False,
                writes_fram=True,
                commit=cfg.commit,
                commit_words=cfg.commit_words,
            )
        )
    return atoms


def bcm_atoms(layer: QuantBCM, idx: int, cfg: PlanConfig) -> List[Atom]:
    """BCM FC plan per Algorithm 1: FFT(x_q) once per input block, then per
    output block accumulate spectral products and inverse-transform."""
    k = layer.block_size
    p, q = layer.p, layer.q
    stage_commit = cfg.commit and cfg.bcm_stage_commits
    commit_words = C.FLEX_COMMIT_WORDS if cfg.bcm_stage_commits else cfg.commit_words
    atoms: List[Atom] = []
    # Stage A: transform each input block, spectra stored to FRAM.
    for j in range(q):
        atoms.append(_move(f"bcm{idx}.x{j}.in", idx, k, cfg, volatile_words=k))
        atoms.append(
            Atom(
                label=f"bcm{idx}.x{j}.fft",
                layer=idx,
                component="lea",
                cycles=op_cycles("fft", k) + cfg.task_overhead_cycles,
                sram_accesses=2 * k,
                commit=stage_commit,
                commit_words=commit_words,
                volatile_words=2 * k,
            )
        )
        atoms.append(
            _move(
                f"bcm{idx}.x{j}.spec.out",
                idx,
                2 * k,
                cfg,
                reads_fram=False,
                writes_fram=True,
                commit=cfg.commit,
                commit_words=commit_words,
            )
        )
    # Stage B: per output block, multiply-accumulate spectra and invert.
    for i in range(p):
        for j in range(q):
            atoms.append(
                _move(
                    f"bcm{idx}.y{i}.x{j}.load",
                    idx,
                    4 * k,  # input spectrum + weight spectrum
                    cfg,
                    volatile_words=2 * k,
                    commit=stage_commit,
                    commit_words=commit_words,
                )
            )
            atoms.append(
                Atom(
                    label=f"bcm{idx}.y{i}.x{j}.mpyacc",
                    layer=idx,
                    component="lea",
                    cycles=op_cycles("cmplx_mpy", k) + op_cycles("add", 2 * k)
                    + cfg.task_overhead_cycles,
                    sram_accesses=6 * k,
                    commit=stage_commit,
                    commit_words=commit_words,
                    volatile_words=2 * k,
                )
            )
        atoms.append(
            Atom(
                label=f"bcm{idx}.y{i}.ifft",
                layer=idx,
                component="lea",
                cycles=op_cycles("bexp", 2 * k)
                + op_cycles("shift", 2 * k)
                + op_cycles("ifft", k)
                + op_cycles("shift", k)
                + cfg.task_overhead_cycles,
                sram_accesses=4 * k,
                commit=stage_commit,
                commit_words=commit_words,
                volatile_words=k,
            )
        )
        atoms.append(
            _move(
                f"bcm{idx}.y{i}.out",
                idx,
                k,
                cfg,
                reads_fram=False,
                writes_fram=True,
                commit=cfg.commit,
                commit_words=commit_words,
            )
        )
    return atoms


def relu_atoms(layer: QuantReLU, idx: int, cfg: PlanConfig) -> List[Atom]:
    """ReLU directly on the CPU over the FRAM buffer (Figure 3).

    Loop-index checkpoints land every ``elementwise_chunk`` elements.
    """
    n = _numel(layer.out_shape)
    chunks = max(2, -(-n // max(1, cfg.elementwise_chunk)))
    return [
        Atom(
            label=f"relu{idx}",
            layer=idx,
            component="cpu",
            cycles=alu_cycles(n) + cfg.task_overhead_cycles,
            fram_reads=n,
            fram_writes=n,
            commit=cfg.commit,
            commit_words=cfg.commit_words,
            divisible=True,
            iterations=chunks,
        )
    ]


def pool_atoms(layer: QuantPool, idx: int, cfg: PlanConfig) -> List[Atom]:
    """Max pool on the CPU: one compare-tree per output element."""
    n_out = _numel(layer.out_shape)
    ph, pw = layer.pool_size
    window = ph * pw
    chunks = max(2, -(-n_out // max(1, cfg.elementwise_chunk)))
    return [
        Atom(
            label=f"pool{idx}",
            layer=idx,
            component="cpu",
            cycles=alu_cycles(n_out * window) + cfg.task_overhead_cycles,
            fram_reads=n_out * window,
            fram_writes=n_out,
            commit=cfg.commit,
            commit_words=cfg.commit_words,
            divisible=True,
            iterations=chunks,
        )
    ]


def layer_signature(layer) -> Tuple:
    """Everything of ``layer`` an atom planner reads, as plain values.

    The planners here and in :mod:`repro.baselines.cpu_plan` read a
    layer's kind and shapes and, for a convolution, which output
    channels have a nonzero kernel; the channel *indices* reach only
    atom labels, so the signature keeps their count.  Weight values
    never reach a program.
    """
    kind = type(layer).__name__
    if isinstance(layer, QuantConv):
        out_c = layer.weight.shape[0]
        active = np.any(layer.weight.reshape(out_c, -1), axis=1)
        return (kind, tuple(map(int, layer.weight.shape)),
                tuple(map(int, layer.out_shape)), int(layer.stride),
                int(np.count_nonzero(active)))
    if isinstance(layer, QuantBCM):
        return (kind, int(layer.block_size), int(layer.p), int(layer.q))
    if isinstance(layer, QuantDense):
        return (kind, tuple(map(int, layer.weight.shape)))
    if isinstance(layer, QuantPool):
        return (kind, tuple(map(int, layer.out_shape)),
                tuple(map(int, layer.pool_size)))
    if isinstance(layer, QuantReLU):
        return (kind, tuple(map(int, layer.out_shape)))
    return (kind,)


def plan_signature(qmodel: QuantizedModel, cfg: PlanConfig) -> Tuple:
    """What :func:`build_program` reads of ``qmodel`` and ``cfg``.

    Equal signatures plan atom programs equal up to their labels, so a
    program cache can key on this without building the atoms.
    """
    return ("ace", astuple(cfg),
            tuple(layer_signature(layer) for layer in qmodel.layers))


def build_program(qmodel: QuantizedModel, cfg: PlanConfig) -> List[Atom]:
    """Compile a quantized model into an ACE-style atom program."""
    atoms: List[Atom] = []
    for idx, layer in enumerate(qmodel.layers):
        if isinstance(layer, QuantConv):
            atoms.extend(conv_atoms(layer, idx, cfg))
        elif isinstance(layer, QuantBCM):
            atoms.extend(bcm_atoms(layer, idx, cfg))
        elif isinstance(layer, QuantDense):
            atoms.extend(dense_atoms(layer, idx, cfg))
        elif isinstance(layer, QuantReLU):
            atoms.extend(relu_atoms(layer, idx, cfg))
        elif isinstance(layer, QuantPool):
            atoms.extend(pool_atoms(layer, idx, cfg))
        elif isinstance(layer, QuantFlatten):
            continue  # pure reinterpretation of the buffer, no work
        else:
            raise ConfigurationError(
                f"planner cannot schedule layer type {type(layer).__name__}"
            )
    if not atoms:
        raise ConfigurationError("model produced an empty program")
    return atoms


def _numel(shape) -> int:
    n = 1
    for d in shape:
        n *= int(d)
    return n
