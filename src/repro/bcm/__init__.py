"""Block-circulant matrix (BCM) algebra and compression accounting."""

from repro.bcm.circulant import bcm_matvec, bcm_to_dense
from repro.bcm.transform import (
    BYTES_PER_WEIGHT,
    TABLE1_BYTES_PER_WEIGHT,
    CompressionRow,
    bcm_fc_bytes,
    compression_table,
    dense_fc_bytes,
)

__all__ = [
    "BYTES_PER_WEIGHT",
    "TABLE1_BYTES_PER_WEIGHT",
    "CompressionRow",
    "bcm_fc_bytes",
    "bcm_matvec",
    "bcm_to_dense",
    "compression_table",
    "dense_fc_bytes",
]
