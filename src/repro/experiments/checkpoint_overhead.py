"""Section IV-A.5: checkpoint/restore overhead of FLEX.

The paper reports a worst-case per-checkpoint cost of 0.033 mJ (hit when
a power failure lands mid-BCM) and total overheads of 1% / 1.25% / 0.8%
for MNIST / HAR / OKG.  This experiment measures both quantities on the
simulated testbed: the worst-case cost from the largest possible FLEX
snapshot (:func:`worst_case_checkpoint_mj`), and the total from the
intermittent runs' meters (the registered ``overhead`` study).
"""

from __future__ import annotations

import numpy as np

from repro.flex.checkpoint import BcmStage, FlexCheckpoint
from repro.rad.quantize import QuantBCM

#: Overheads printed in the paper.
PAPER_OVERHEAD = {"mnist": 0.01, "har": 0.0125, "okg": 0.008}
PAPER_MAX_COST_MJ = 0.033


def worst_case_checkpoint_mj(qmodel) -> float:
    """Cost of the largest on-demand snapshot the model can require
    (a full complex spectrum of the biggest BCM block)."""
    worst = FlexCheckpoint(layer=0, block_p=0, block_q=0, stage=BcmStage.DMA_IN)
    cost = worst.cost_mj()
    for i, layer in enumerate(qmodel.layers):
        if isinstance(layer, QuantBCM):
            snap = FlexCheckpoint(
                layer=i,
                block_p=0,
                block_q=0,
                stage=BcmStage.FFT_DONE,
                intermediate=np.zeros(2 * layer.block_size, dtype=np.int16),
            )
            cost = max(cost, snap.cost_mj())
    return cost
