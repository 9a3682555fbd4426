"""Q15 fixed-point representation.

The MSP430's LEA accelerator and the paper's ACE software both operate on
16-bit signed fixed-point numbers in *Q15* format: an ``int16`` value ``v``
represents the real number ``v / 2**15`` in the interval ``[-1, 1)``.

This module provides conversion helpers and the int16 saturation used
throughout the on-device kernels.  All functions accept scalars or numpy
arrays and return numpy values of the indicated dtype.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QuantizationError

#: Number of fractional bits in Q15.
Q15_FRAC_BITS = 15

#: The Q15 scale factor: real value = raw / Q15_ONE.
Q15_ONE = 1 << Q15_FRAC_BITS  # 32768

#: Representable int16 range.
INT16_MIN = -(1 << 15)
INT16_MAX = (1 << 15) - 1


def saturate16(x) -> np.ndarray:
    """Clamp an integer array into the int16 range and cast to int16."""
    return np.clip(np.asarray(x), INT16_MIN, INT16_MAX).astype(np.int16)


def float_to_q15(x) -> np.ndarray:
    """Quantize floating-point data to Q15 with round-to-nearest.

    Values outside ``[-1, 1)`` saturate to the int16 limits; non-finite
    input raises :class:`~repro.errors.QuantizationError`.
    """
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise QuantizationError("cannot quantize non-finite values to Q15")
    scaled = np.rint(arr * Q15_ONE)
    return saturate16(scaled)


def best_frac_bits(x) -> int:
    """Choose the largest fractional-bit count (at most 15) that avoids
    saturation.

    Used by post-training calibration: given representative data ``x``,
    return the ``frac_bits`` maximizing resolution while keeping
    ``max(|x|)`` representable.
    """
    arr = np.asarray(x, dtype=np.float64)
    peak = float(np.max(np.abs(arr))) if arr.size else 0.0
    frac = 15
    # A Q(15-f).f grid represents magnitudes up to 2**(15-f) (exclusive).
    while frac > 0 and peak >= (1 << (15 - frac)):
        frac -= 1
    return frac
