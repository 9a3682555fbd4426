"""Tests for FLEX checkpoint records."""

import numpy as np

from repro.flex import BcmStage, FlexCheckpoint


class TestFlexCheckpoint:
    def test_control_only_is_tiny(self):
        ckpt = FlexCheckpoint(layer=3, block_p=1, block_q=0, stage=BcmStage.FFT_DONE)
        assert ckpt.snapshot_words == 0
        assert ckpt.total_words == ckpt.control_words
        assert ckpt.cost_mj() < 0.001

    def test_snapshot_words_counted(self):
        ckpt = FlexCheckpoint(
            layer=3, block_p=0, block_q=1, stage=BcmStage.MPY_DONE,
            intermediate=np.zeros(512, dtype=np.int16),
        )
        assert ckpt.snapshot_words == 512
        assert ckpt.cost_mj() > FlexCheckpoint(
            layer=3, block_p=0, block_q=1, stage=BcmStage.MPY_DONE
        ).cost_mj()

    def test_worst_case_below_paper_bound(self):
        """Even a full 256-point complex spectrum snapshot stays below the
        paper's 0.033 mJ bound."""
        ckpt = FlexCheckpoint(
            layer=0, block_p=0, block_q=0, stage=BcmStage.FFT_DONE,
            intermediate=np.zeros(2 * 256, dtype=np.int16),
        )
        assert ckpt.cost_mj() <= 0.033

    def test_stage_enum_order(self):
        assert BcmStage.DMA_IN < BcmStage.FFT_DONE < BcmStage.MPY_DONE
        assert BcmStage.MPY_DONE < BcmStage.IFFT_DONE < BcmStage.WRITTEN_BACK
