"""Table I: BCM compression of a 512x512 FC layer across block sizes."""

from __future__ import annotations

from typing import List

from repro.bcm import CompressionRow, compression_table


def run_table1() -> List[CompressionRow]:
    """Compute the paper's Table I rows (block sizes 16..256)."""
    return compression_table(512, 512)


#: The numbers printed in the paper, for verification.
PAPER_TABLE1 = {
    16: (65536, 0.9375),
    32: (32768, 0.9687),
    64: (16384, 0.9843),
    128: (8192, 0.9921),
    256: (4096, 0.9960),
}
