"""FLEX checkpoint records (Figure 6, right).

A FLEX checkpoint is tiny by design: the block indices, the b0-b2 state
bits identifying which stage of the FFT->MPY->IFFT pipeline completed
last, and — only when the voltage monitor forced an on-demand snapshot —
the latest intermediate vector.  This module models the record layout and
its FRAM cost so the overhead evaluation (Section IV-A.5) has a concrete
artifact to measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

import numpy as np

from repro.hw import constants as C
from repro.hw.board import commit_cost


class BcmStage(IntEnum):
    """The b0-b2 state bits of Figure 6."""

    DMA_IN = 0
    FFT_DONE = 1
    MPY_DONE = 2
    IFFT_DONE = 3
    WRITTEN_BACK = 4


@dataclass
class FlexCheckpoint:
    """One checkpoint record."""

    layer: int
    block_p: int
    block_q: int
    stage: BcmStage
    intermediate: Optional[np.ndarray] = None  # int16 snapshot, if taken

    @property
    def control_words(self) -> int:
        """FRAM words of control state (indices + packed state bits)."""
        return C.FLEX_COMMIT_WORDS

    @property
    def snapshot_words(self) -> int:
        return 0 if self.intermediate is None else int(self.intermediate.size)

    @property
    def total_words(self) -> int:
        return self.control_words + self.snapshot_words

    def cost_mj(self) -> float:
        """Checkpoint cost in millijoules (CPU time + FRAM writes), the
        quantity the paper bounds at 0.033 mJ."""
        return commit_cost(self.total_words)[1] * 1e3
