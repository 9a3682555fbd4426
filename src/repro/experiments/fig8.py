"""Figure 8: latency and energy of MNIST's first FC layer versus the BCM
block size (dense / 32 / 64 / 128), measured by the ``fig8`` study.

Bigger blocks compress more and shorten the FFT pipeline relative to the
work it replaces, so latency and energy drop monotonically — bounded in
practice by accuracy degradation and LEA buffer limits (Section IV-A.4).
"""

#: MNIST first FC layer geometry (Table II).
IN_FEATURES = 256
OUT_FEATURES = 256

#: Variants evaluated in Figure 8 (None = dense ACE without BCM).
BLOCK_SIZES = (None, 32, 64, 128)
