"""The plain ACE runtime: fast, accelerator-driven, no intermittence support.

Under continuous power this is the paper's best performer; under harvested
power it restarts from scratch after every brown-out (no checkpoints) and
DNFs whenever a full inference does not fit one capacitor charge — the
"X" bars of Figure 7(b).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.ace.buffers import circular_plan
from repro.ace.plan import PlanConfig, build_program, plan_signature
from repro.errors import ResourceExceededError
from repro.rad.quantize import QuantizedModel
from repro.sim.atoms import Atom
from repro.sim.runtime import InferenceRuntime


class AceRuntime(InferenceRuntime):
    """Accelerator-enabled embedded software (Section III-B)."""

    name = "ACE"
    commit_enabled = False
    snapshot_on_warning = False

    def __init__(
        self,
        qmodel: QuantizedModel,
        *,
        use_dma: bool = True,
        bcm_mode: Optional[str] = None,
        fram_budget_bytes: Optional[int] = 192 * 1024,
    ) -> None:
        self.qmodel = qmodel
        self.use_dma = use_dma
        self.bcm_mode = bcm_mode
        if fram_budget_bytes is not None and qmodel.weight_bytes > fram_budget_bytes:
            raise ResourceExceededError(
                f"{qmodel.name}: weights ({qmodel.weight_bytes} B) exceed the "
                f"FRAM budget ({fram_budget_bytes} B)"
            )
        # Activation placement: the two circular buffers (Figure 5).
        io_sizes = [_numel(qmodel.input_shape)] + [
            _numel(layer.out_shape) for layer in qmodel.layers
        ]
        self.buffer_plan = circular_plan(io_sizes)
        self._atoms: Optional[List[Atom]] = None

    def _plan_config(self) -> PlanConfig:
        return PlanConfig(use_dma=self.use_dma, commit=False)

    def build_atoms(self) -> List[Atom]:
        if self._atoms is None:
            self._atoms = build_program(self.qmodel, self._plan_config())
        return self._atoms

    def program_signature(self) -> Tuple:
        return plan_signature(self.qmodel, self._plan_config())

    def compute_logits(self, x: np.ndarray) -> np.ndarray:
        logits = self.qmodel.forward(
            np.asarray(x)[None, ...], bcm_mode=self.bcm_mode
        )
        return logits[0]

    def compute_logits_batch(self, xs: np.ndarray) -> np.ndarray:
        # Integer kernels: batched rows are bit-identical to per-sample runs.
        return self.qmodel.forward(np.asarray(xs), bcm_mode=self.bcm_mode)

    def restore_words(self) -> int:
        return 0  # nothing to restore: ACE has no progress records


def _numel(shape) -> int:
    n = 1
    for d in shape:
        n *= int(d)
    return n
