"""LEA (Low Energy Accelerator) vector-operation cost model.

The LEA executes vector commands (FFT, IFFT, MAC, ADD, MPY, complex
multiply, shift) from its shared SRAM without CPU intervention; the CPU
issues a command block and sleeps.  Costs follow SLAA720: a fixed
command-issue overhead plus a per-element rate, and ~2.5 cycles per
radix-2 butterfly for the FFT.
"""

from __future__ import annotations

from repro.hw import constants as C

#: Vector commands the LEA supports (subset used by ACE).
LEA_OPS = ("mac", "add", "mpy", "cmplx_mpy", "fft", "ifft", "shift", "bexp")


def op_cycles(op: str, length: int) -> float:
    """Cycle cost of one LEA command over a ``length``-element vector.

    Vectors longer than the LEA's working memory allows are executed as
    multiple tiled commands (each paying the setup cost), exactly as real
    firmware must: MACs tile at ``LEA_MAX_MAC_ELEMS`` elements; FFTs
    beyond ``LEA_MAX_FFT_POINTS`` are rejected (no such command exists).
    """
    if op not in LEA_OPS:
        raise ValueError(f"unknown LEA op {op!r}; expected one of {LEA_OPS}")
    if length <= 0:
        raise ValueError(f"vector length must be positive, got {length}")
    if op in ("fft", "ifft"):
        if length & (length - 1):
            raise ValueError(f"FFT length must be a power of two, got {length}")
        if length > C.LEA_MAX_FFT_POINTS:
            raise ValueError(
                f"LEA supports FFTs up to {C.LEA_MAX_FFT_POINTS} points, "
                f"got {length}"
            )
        log2n = length.bit_length() - 1
        return C.LEA_SETUP_CYCLES + (length / 2) * log2n * C.LEA_FFT_CYCLES_PER_BUTTERFLY
    per_elem = {
        "mac": C.LEA_MAC_CYCLES_PER_ELEM,
        "add": C.LEA_ADD_CYCLES_PER_ELEM,
        "mpy": C.LEA_MPY_CYCLES_PER_ELEM,
        "cmplx_mpy": C.LEA_CMPLX_MPY_CYCLES_PER_ELEM,
        "shift": C.LEA_MPY_CYCLES_PER_ELEM,
        "bexp": C.LEA_ADD_CYCLES_PER_ELEM,
    }[op]
    tiles = -(-length // C.LEA_MAX_MAC_ELEMS)
    return tiles * C.LEA_SETUP_CYCLES + length * per_elem
