"""BCM storage accounting and spectral-domain weight preparation.

Reproduces Table I of the paper (storage reduction of a 512x512 FC layer
under different block sizes) and prepares precomputed ``FFT(w)`` spectra for
the on-device kernels — the paper notes either the first columns or their
FFTs may be stored; ACE stores spectra so the device skips one FFT per
block at inference time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Bytes per stored weight on device (16-bit fixed point).
BYTES_PER_WEIGHT = 2

#: Bytes per weight used by the paper's Table I (float32 training storage:
#: 512*512*4 = 1048576 bytes for the uncompressed kernel).
TABLE1_BYTES_PER_WEIGHT = 4


@dataclass(frozen=True)
class CompressionRow:
    """One row of Table I."""

    kernel_bytes: int
    block_size: int
    compressed_bytes: int
    storage_reduction: float  # fraction in [0, 1)


def dense_fc_bytes(in_features: int, out_features: int,
                   bytes_per_weight: int = BYTES_PER_WEIGHT) -> int:
    """Storage of an uncompressed FC kernel."""
    if in_features <= 0 or out_features <= 0:
        raise ConfigurationError("FC dimensions must be positive")
    return in_features * out_features * bytes_per_weight


def bcm_fc_bytes(in_features: int, out_features: int, block_size: int,
                 bytes_per_weight: int = BYTES_PER_WEIGHT) -> int:
    """Storage of a BCM-compressed FC kernel (first columns only)."""
    if block_size <= 0 or in_features % block_size or out_features % block_size:
        raise ConfigurationError(
            f"block size {block_size} must divide {in_features}x{out_features}"
        )
    p = out_features // block_size
    q = in_features // block_size
    return p * q * block_size * bytes_per_weight


def compression_table(
    in_features: int = 512,
    out_features: int = 512,
    block_sizes: Tuple[int, ...] = (16, 32, 64, 128, 256),
    bytes_per_weight: int = TABLE1_BYTES_PER_WEIGHT,
) -> List[CompressionRow]:
    """Table I: BCM compression of an FC layer across block sizes.

    The paper counts float32 weights (1048576 bytes for 512x512); pass
    ``bytes_per_weight=2`` for on-device int16 numbers.  The *reduction*
    percentages are byte-width independent (always ``1 - 1/k``).
    """
    dense = dense_fc_bytes(in_features, out_features, bytes_per_weight)
    rows = []
    for k in block_sizes:
        comp = bcm_fc_bytes(in_features, out_features, k, bytes_per_weight)
        rows.append(
            CompressionRow(
                kernel_bytes=dense,
                block_size=k,
                compressed_bytes=comp,
                storage_reduction=1.0 - comp / dense,
            )
        )
    return rows


def spectra_from_columns(weights: np.ndarray) -> np.ndarray:
    """Precompute per-block FFT spectra from first columns ``(p, q, k)``.

    Returns a complex array of the same shape; on device these are stored
    quantized (see ``repro.ace.kernels``).
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 3:
        raise ConfigurationError("BCM weights must be (p, q, k)")
    return np.fft.fft(w, axis=-1)


def columns_from_spectra(spectra: np.ndarray) -> np.ndarray:
    """Inverse of :func:`spectra_from_columns` (real first columns)."""
    s = np.asarray(spectra, dtype=np.complex128)
    if s.ndim != 3:
        raise ConfigurationError("BCM spectra must be (p, q, k)")
    return np.fft.ifft(s, axis=-1).real
