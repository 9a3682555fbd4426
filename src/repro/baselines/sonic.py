"""SONIC (Gobieski et al., ASPLOS'19): loop-continuation intermittent
inference.

SONIC decomposes the DNN into tasks whose loop-heavy bodies save their
control state (loop indices) to nonvolatile memory after *every*
iteration, with redo logging for written data.  That makes every
iteration durable — SONIC resumes within one iteration of the failure
point — at the price of substantial per-iteration overhead, which is why
it is the slowest and most energy-hungry runtime in Figure 7.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.baselines.cpu_plan import build_cpu_program, cpu_plan_signature
from repro.hw import constants as C
from repro.rad.quantize import QuantizedModel
from repro.sim.atoms import Atom
from repro.sim.runtime import InferenceRuntime


class SonicRuntime(InferenceRuntime):
    """Software-only intermittence-safe inference."""

    name = "SONIC"
    commit_enabled = True
    snapshot_on_warning = False

    def __init__(self, qmodel: QuantizedModel) -> None:
        self.qmodel = qmodel
        self._atoms = None

    def build_atoms(self) -> List[Atom]:
        if self._atoms is None:
            self._atoms = build_cpu_program(self.qmodel, sonic=True)
        return self._atoms

    def program_signature(self) -> Tuple:
        return cpu_plan_signature(self.qmodel, sonic=True)

    def compute_logits(self, x: np.ndarray) -> np.ndarray:
        return self.qmodel.forward(np.asarray(x)[None, ...])[0]

    def compute_logits_batch(self, xs: np.ndarray) -> np.ndarray:
        # Integer kernels: batched rows are bit-identical to per-sample runs.
        return self.qmodel.forward(np.asarray(xs))

    def restore_words(self) -> int:
        return C.SONIC_LOOP_FRAM_WORDS
