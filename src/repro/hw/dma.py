"""DMA transfer cost model.

ACE moves bulk vectors with the DMA engine (2 cycles/word after setup)
and single words with the CPU (~7 cycles/word); the crossover point is a
few words, which is why Figure 3's dataflow DMAs whole buffers.
"""

from __future__ import annotations

from repro.hw import constants as C


def transfer_cycles(n_words: int) -> float:
    """DMA block transfer of ``n_words`` 16-bit words."""
    if n_words < 0:
        raise ValueError("n_words must be non-negative")
    if n_words == 0:
        return 0.0
    return C.DMA_SETUP_CYCLES + n_words * C.DMA_CYCLES_PER_WORD
