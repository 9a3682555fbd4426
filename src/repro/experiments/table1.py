"""Table I: BCM compression of a 512x512 FC layer across block sizes
(computed by the ``table1`` study)."""

#: The numbers printed in the paper, for verification.
PAPER_TABLE1 = {
    16: (65536, 0.9375),
    32: (32768, 0.9687),
    64: (16384, 0.9843),
    128: (8192, 0.9921),
    256: (4096, 0.9960),
}
