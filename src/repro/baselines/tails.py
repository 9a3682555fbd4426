"""TAILS (Gobieski et al., ASPLOS'19): SONIC's task structure plus
hardware acceleration.

TAILS moves vector work onto the LEA with DMA staging and checkpoints
loop indices after each vector operation's writeback.  Because only loop
indices are saved, any state still in accelerator SRAM when power fails
is lost: the atoms between DMA-in and writeback are not durable, and the
runtime rolls back to the start of the in-flight vector operation — the
behaviour Figure 6 (left) illustrates for FFT pipelines.

TAILS runs the dense backbone (no BCM): the paper introduces BCM-aware
checkpointing precisely because TAILS cannot resume inside
FFT->MPY->IFFT chains.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.ace.plan import PlanConfig, build_program, plan_signature
from repro.hw import constants as C
from repro.rad.quantize import QuantizedModel
from repro.sim.atoms import Atom
from repro.sim.runtime import InferenceRuntime


class TailsRuntime(InferenceRuntime):
    """LEA-accelerated, loop-index-checkpointed inference."""

    name = "TAILS"
    commit_enabled = True
    snapshot_on_warning = False
    use_dma = True

    def __init__(self, qmodel: QuantizedModel) -> None:
        self.qmodel = qmodel
        self._atoms = None

    def _plan_config(self) -> PlanConfig:
        return PlanConfig(
            use_dma=self.use_dma,
            commit=True,
            commit_words=C.TAILS_COMMIT_WORDS,
            bcm_stage_commits=False,  # loop indices only (Figure 6 left)
            conv_staging="window",  # per-vector-op staging, no row reuse
            task_overhead_cycles=C.TAILS_TASK_CYCLES,
            batched_ops=False,  # one task (and LEA setup) per vector op
        )

    def build_atoms(self) -> List[Atom]:
        if self._atoms is None:
            self._atoms = build_program(self.qmodel, self._plan_config())
        return self._atoms

    def program_signature(self) -> Tuple:
        return plan_signature(self.qmodel, self._plan_config())

    def compute_logits(self, x: np.ndarray) -> np.ndarray:
        return self.qmodel.forward(np.asarray(x)[None, ...])[0]

    def compute_logits_batch(self, xs: np.ndarray) -> np.ndarray:
        # Integer kernels: batched rows are bit-identical to per-sample runs.
        return self.qmodel.forward(np.asarray(xs))

    def restore_words(self) -> int:
        return C.TAILS_COMMIT_WORDS
