"""BASE: plain CPU implementation with no intermittence support.

The paper's BASE runs the uncompressed model on the CPU and simply
restarts from scratch after a power failure, so under harvested power it
never completes any inference that exceeds one capacitor charge.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.baselines.cpu_plan import build_cpu_program, cpu_plan_signature
from repro.rad.quantize import QuantizedModel
from repro.sim.atoms import Atom
from repro.sim.runtime import InferenceRuntime


class BaseRuntime(InferenceRuntime):
    """Uncompressed, CPU-only, checkpoint-free inference."""

    name = "BASE"
    commit_enabled = False
    snapshot_on_warning = False

    def __init__(self, qmodel: QuantizedModel) -> None:
        self.qmodel = qmodel
        self._atoms = None

    def build_atoms(self) -> List[Atom]:
        if self._atoms is None:
            self._atoms = build_cpu_program(self.qmodel, sonic=False)
        return self._atoms

    def program_signature(self) -> Tuple:
        return cpu_plan_signature(self.qmodel, sonic=False)

    def compute_logits(self, x: np.ndarray) -> np.ndarray:
        return self.qmodel.forward(np.asarray(x)[None, ...])[0]

    def compute_logits_batch(self, xs: np.ndarray) -> np.ndarray:
        # Integer kernels: batched rows are bit-identical to per-sample runs.
        return self.qmodel.forward(np.asarray(xs))

    def restore_words(self) -> int:
        return 0
