"""Resource-aware model analysis (the "resource-aware" in RAD).

RAD must produce models that fit the target device: weights in FRAM
(256 KB on the MSP430FR5994), working buffers in SRAM (8 KB), and an
acceptable inference latency at 16 MHz.  This module computes those
footprints for a :class:`~repro.nn.model.Sequential` model *before*
deployment, so the architecture search can reject infeasible candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.nn.layers import BCMDense, Conv2D, CosineDense, Dense, Flatten, MaxPool2D
from repro.nn.model import Sequential

#: Bytes per on-device weight/activation (16-bit fixed point).
BYTES_PER_VALUE = 2


@dataclass(frozen=True)
class DeviceBudget:
    """Capacity limits a candidate model must respect."""

    fram_bytes: int = 256 * 1024
    sram_bytes: int = 8 * 1024
    #: Fraction of FRAM reserved for checkpoints / control state.
    fram_reserved_fraction: float = 0.25

    @property
    def usable_fram(self) -> int:
        return int(self.fram_bytes * (1.0 - self.fram_reserved_fraction))


@dataclass(frozen=True)
class ModelResources:
    """Static resource footprint of a model.

    Placement mirrors Figure 2 of the paper: weights and the two circular
    activation buffers live in FRAM; SRAM only stages the operands of the
    vector operation currently executing on the LEA (input vector, kernel
    vector, output vector).
    """

    weight_bytes: int
    activation_bytes: int  # 2 ping-pong circular buffers, max layer IO each
    sram_staging_bytes: int  # largest per-op accelerator working set
    macs: int  # multiply-accumulate count of one inference
    layer_io_sizes: Tuple[int, ...]  # elements in/out of each compute layer

    @property
    def fram_bytes(self) -> int:
        """Total nonvolatile requirement (weights + activation buffers)."""
        return self.weight_bytes + self.activation_bytes

    def fits(self, budget: DeviceBudget) -> bool:
        return (
            self.fram_bytes <= budget.usable_fram
            and self.sram_staging_bytes <= budget.sram_bytes
        )


def _layer_weight_count(layer) -> int:
    return sum(p.size for p in layer.parameters())


def analyze(model: Sequential, input_shape: Tuple[int, ...]) -> ModelResources:
    """Compute the resource footprint of ``model`` for inputs of
    ``input_shape`` (channel-first, without the batch dimension)."""
    shape = tuple(int(d) for d in input_shape)
    macs = 0
    io_sizes: List[int] = []
    max_io = _numel(shape)
    weight_bytes = 0
    staging = 0
    for layer in model.layers:
        out_shape = layer.output_shape(shape)
        n_out = _numel(out_shape)
        max_io = max(max_io, n_out)
        weight_bytes += _layer_weight_count(layer) * BYTES_PER_VALUE
        if isinstance(layer, Conv2D):
            kh, kw = layer.kernel_size
            vec = layer.in_channels * kh * kw
            macs += n_out * vec
            # One kernel vector + one input window + accumulator in SRAM.
            staging = max(staging, (2 * vec + 2) * BYTES_PER_VALUE)
            io_sizes.append(n_out)
        elif isinstance(layer, BCMDense):
            # FFT-based cost: p*q blocks, each ~ 3 FFTs of k log k plus k muls.
            k = layer.block_size
            log2k = max(1, k.bit_length() - 1)
            macs += layer.p * layer.q * (3 * k * log2k + k)
            # Three complex k-vectors (input spectrum, weight spectrum,
            # product) staged for the LEA, 2 int16 words per element.
            staging = max(staging, 3 * k * 2 * BYTES_PER_VALUE)
            io_sizes.append(n_out)
        elif isinstance(layer, (Dense, CosineDense)):
            macs += layer.in_features * layer.out_features
            staging = max(staging, (2 * layer.in_features + 2) * BYTES_PER_VALUE)
            io_sizes.append(n_out)
        elif isinstance(layer, (MaxPool2D, Flatten)):
            io_sizes.append(n_out)
        else:
            # Activations and other shape-preserving layers: linear cost.
            io_sizes.append(n_out)
        shape = out_shape
    # ACE's circular-buffer convolution keeps two ping-pong activation
    # buffers (in FRAM) sized by the largest layer IO (Section III-B).
    activation_bytes = 2 * max_io * BYTES_PER_VALUE
    return ModelResources(
        weight_bytes=weight_bytes,
        activation_bytes=activation_bytes,
        sram_staging_bytes=staging,
        macs=macs,
        layer_io_sizes=tuple(io_sizes),
    )


def _numel(shape) -> int:
    n = 1
    for d in shape:
        n *= int(d)
    return n


def check_fits(model: Sequential, input_shape, budget: DeviceBudget) -> ModelResources:
    """Analyze and raise :class:`ResourceExceededError` if over budget."""
    from repro.errors import ResourceExceededError

    res = analyze(model, input_shape)
    if res.fram_bytes > budget.usable_fram:
        raise ResourceExceededError(
            f"weights + activation buffers need {res.fram_bytes} B but "
            f"usable FRAM is {budget.usable_fram} B"
        )
    if res.sram_staging_bytes > budget.sram_bytes:
        raise ResourceExceededError(
            f"accelerator staging needs {res.sram_staging_bytes} B but "
            f"SRAM is {budget.sram_bytes} B"
        )
    return res
