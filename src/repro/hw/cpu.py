"""CPU cycle-cost helpers (MSP430 core at 16 MHz).

Pure functions mapping work items to cycle counts; the
:class:`~repro.hw.board.Device` turns cycles into time and energy.
"""

from __future__ import annotations

from repro.hw import constants as C


def alu_cycles(n_ops: int) -> float:
    """Generic ALU work: compares, max-pool, ReLU, additions."""
    if n_ops < 0:
        raise ValueError("n_ops must be non-negative")
    return n_ops * C.CPU_ALU_CYCLES


def copy_cycles(n_words: int) -> float:
    """CPU-driven memory copy (the slow alternative to DMA)."""
    if n_words < 0:
        raise ValueError("n_words must be non-negative")
    return n_words * C.CPU_COPY_CYCLES_PER_WORD


def software_fft_cycles(n: int) -> float:
    """Software complex FFT: (N/2) log2 N butterflies on the CPU."""
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"FFT length must be a power of two >= 2, got {n}")
    log2n = n.bit_length() - 1
    return (n / 2) * log2n * C.CPU_FFT_BUTTERFLY_CYCLES
