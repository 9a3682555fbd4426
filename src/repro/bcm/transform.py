"""BCM storage accounting and spectral-domain weight preparation.

Reproduces Table I of the paper (storage reduction of a 512x512 FC layer
under different block sizes) and prepares precomputed ``FFT(w)`` spectra for
the on-device kernels — the paper notes either the first columns or their
FFTs may be stored; ACE stores spectra so the device skips one FFT per
block at inference time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

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
) -> List[CompressionRow]:
    """Table I: BCM compression of an FC layer across block sizes 16-256.

    The paper counts float32 weights (1048576 bytes for 512x512).  The
    *reduction* percentages are byte-width independent (always
    ``1 - 1/k``).
    """
    bytes_per_weight = TABLE1_BYTES_PER_WEIGHT
    dense = dense_fc_bytes(in_features, out_features, bytes_per_weight)
    rows = []
    for k in (16, 32, 64, 128, 256):
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
