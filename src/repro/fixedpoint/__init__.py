"""16-bit fixed-point arithmetic used by the on-device (ACE) kernels.

Exports the Q15 grid helpers, int16 saturation, the scaled radix-2 FFT and
overflow accounting.
"""

from repro.fixedpoint.fft import (
    bit_reversal_permutation,
    fft_reference,
    q15_fft,
    q15_fft_reference,
    q15_ifft,
    q15_ifft_reference,
    twiddle_q15,
)
from repro.fixedpoint.overflow import GLOBAL_MONITOR, OverflowMonitor
from repro.fixedpoint.q15 import (
    INT16_MAX,
    INT16_MIN,
    Q15_FRAC_BITS,
    Q15_ONE,
    best_frac_bits,
    float_to_q15,
    saturate16,
)

__all__ = [
    "GLOBAL_MONITOR",
    "INT16_MAX",
    "INT16_MIN",
    "OverflowMonitor",
    "Q15_FRAC_BITS",
    "Q15_ONE",
    "best_frac_bits",
    "bit_reversal_permutation",
    "fft_reference",
    "float_to_q15",
    "q15_fft",
    "q15_fft_reference",
    "q15_ifft",
    "q15_ifft_reference",
    "saturate16",
    "twiddle_q15",
]
