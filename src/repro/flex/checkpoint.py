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

from repro.errors import CheckpointError
from repro.hw import constants as C
from repro.hw.board import commit_cost
from repro.hw.memory import Fram


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


class CheckpointStore:
    """FRAM-backed storage of the current FLEX checkpoint."""

    KEY = "flex/checkpoint"

    def __init__(self, fram: Fram) -> None:
        self.fram = fram
        self.writes = 0

    def save(self, ckpt: FlexCheckpoint) -> None:
        self.fram.put(self.KEY, ckpt)
        self.writes += 1

    def load(self) -> FlexCheckpoint:
        ckpt = self.fram.get(self.KEY)
        if ckpt is None:
            raise CheckpointError("no FLEX checkpoint present")
        return ckpt

    def peek(self) -> Optional[FlexCheckpoint]:
        return self.fram.get(self.KEY)

    def clear(self) -> None:
        self.fram.delete(self.KEY)
