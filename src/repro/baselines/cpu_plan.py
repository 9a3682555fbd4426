"""CPU-only (software) atom builders shared by BASE and SONIC.

Both run the *dense* backbone models element-by-element on the MSP430
core: every output element is an inner-product loop over FRAM-resident
weights and activations.  SONIC additionally pays loop-continuation
overhead per iteration (task transitions + redo-logged state writes) in
exchange for per-iteration durability; BASE pays nothing and therefore
cannot survive power failures.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.ace.plan import layer_signature
from repro.errors import ConfigurationError
from repro.hw import constants as C
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


def _loop_atom(
    label: str,
    layer: int,
    iterations: int,
    cycles_per_iter: float,
    fram_reads_per_iter: int,
    fram_writes_per_iter: int,
    *,
    sonic: bool,
) -> Atom:
    """One element-wise loop as a divisible atom."""
    if iterations < 1:
        raise ConfigurationError("loop needs at least one iteration")
    overhead = C.SONIC_LOOP_OVERHEAD_CYCLES if sonic else 0.0
    atom_kwargs = dict(
        label=label,
        layer=layer,
        component="cpu",
        cycles=iterations * (cycles_per_iter + overhead),
        fram_reads=iterations * fram_reads_per_iter,
        fram_writes=iterations * fram_writes_per_iter,
        commit=sonic,
        commit_words=C.SONIC_LOOP_FRAM_WORDS if sonic else 0,
    )
    if iterations >= 2:
        atom_kwargs.update(divisible=True, iterations=iterations)
    return Atom(**atom_kwargs)


def cpu_plan_signature(qmodel: QuantizedModel, *, sonic: bool) -> Tuple:
    """What :func:`build_cpu_program` reads of ``qmodel`` (see
    :func:`~repro.ace.plan.plan_signature`)."""
    return ("cpu", bool(sonic),
            tuple(layer_signature(layer) for layer in qmodel.layers))


def build_cpu_program(qmodel: QuantizedModel, *, sonic: bool) -> List[Atom]:
    """Compile a quantized model into an element-wise CPU program."""
    atoms: List[Atom] = []
    for idx, layer in enumerate(qmodel.layers):
        if isinstance(layer, QuantConv):
            out_c, in_c, kh, kw = layer.weight.shape
            active = [o for o in range(out_c) if np.any(layer.weight[o])]
            _, out_h, out_w = layer.out_shape
            vec = in_c * kh * kw
            atoms.append(
                _loop_atom(
                    f"conv{idx}",
                    idx,
                    iterations=len(active) * out_h * out_w,
                    cycles_per_iter=vec
                    * (C.CPU_MAC_CYCLES
                       + (C.SONIC_PER_ELEM_OVERHEAD_CYCLES if sonic else 0)),
                    fram_reads_per_iter=2 * vec,  # weights + input window
                    fram_writes_per_iter=1,
                    sonic=sonic,
                )
            )
        elif isinstance(layer, QuantDense):
            out_f, in_f = layer.weight.shape
            atoms.append(
                _loop_atom(
                    f"fc{idx}",
                    idx,
                    iterations=out_f,
                    cycles_per_iter=in_f
                    * (C.CPU_MAC_CYCLES
                       + (C.SONIC_PER_ELEM_OVERHEAD_CYCLES if sonic else 0)),
                    fram_reads_per_iter=2 * in_f,
                    fram_writes_per_iter=1,
                    sonic=sonic,
                )
            )
        elif isinstance(layer, QuantBCM):
            # A CPU-only runtime has no FFT accelerator; it computes the
            # block-circulant product as a software FFT pipeline.
            k = layer.block_size
            from repro.hw.cpu import software_fft_cycles

            per_block_fft = software_fft_cycles(k)
            n_ffts = layer.q + layer.p  # forward per input blk + inverse per out blk
            n_muls = layer.p * layer.q * k
            atoms.append(
                _loop_atom(
                    f"bcm{idx}",
                    idx,
                    iterations=layer.p * layer.q,
                    cycles_per_iter=(
                        n_ffts * per_block_fft / (layer.p * layer.q)
                        + n_muls
                        * (C.CPU_MAC_CYCLES
                           + (C.SONIC_PER_ELEM_OVERHEAD_CYCLES if sonic else 0))
                        / (layer.p * layer.q)
                    ),
                    fram_reads_per_iter=4 * k,
                    fram_writes_per_iter=2 * k,
                    sonic=sonic,
                )
            )
        elif isinstance(layer, QuantReLU):
            n = _numel(layer.out_shape)
            atoms.append(
                _loop_atom(
                    f"relu{idx}", idx, n, C.CPU_ALU_CYCLES, 1, 1, sonic=sonic
                )
            )
        elif isinstance(layer, QuantPool):
            n = _numel(layer.out_shape)
            ph, pw = layer.pool_size
            atoms.append(
                _loop_atom(
                    f"pool{idx}",
                    idx,
                    n,
                    ph * pw * C.CPU_ALU_CYCLES,
                    ph * pw,
                    1,
                    sonic=sonic,
                )
            )
        elif isinstance(layer, QuantFlatten):
            continue
        else:
            raise ConfigurationError(
                f"CPU planner cannot schedule {type(layer).__name__}"
            )
    if not atoms:
        raise ConfigurationError("model produced an empty program")
    return atoms


def _numel(shape) -> int:
    n = 1
    for d in shape:
        n *= int(d)
    return n
