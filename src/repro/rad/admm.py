"""ADMM-regularized structured pruning (Section III-A of the paper).

Follows the ADMM-NN recipe (Ren et al., ASPLOS'19): the constrained problem

    minimize  f(W)   subject to   W in S (structured-sparse set)

is split with an auxiliary variable ``Z`` and scaled dual ``U``:

    repeat:
        W <- argmin f(W) + (rho/2) ||W - Z + U||^2     (SGD epochs)
        Z <- project(W + U)                            (structured mask)
        U <- U + W - Z

After the ADMM iterations converge, :meth:`ADMMPruner.finalize` installs
hard masks and the caller fine-tunes the masked model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.layers import Conv2D
from repro.nn.model import Sequential, fit
from repro.nn.optim import SGD
from repro.rad.prune import structured_mask, project


@dataclass(frozen=True)
class PruneSpec:
    """Pruning constraint for one conv layer."""

    keep_ratio: float  # fraction of groups kept (0.5 = the paper's "2x")
    kind: str = "filter"

    def __post_init__(self) -> None:
        if not 0.0 < self.keep_ratio <= 1.0:
            raise ConfigurationError(
                f"keep_ratio must be in (0, 1], got {self.keep_ratio}"
            )


class ADMMPruner:
    """Drives ADMM-regularized training toward structured sparsity.

    ``constraints`` maps the index of a :class:`Conv2D` layer inside the
    Sequential model to its :class:`PruneSpec`.
    """

    #: ADMM penalty weight.
    rho = 1e-2

    def __init__(
        self,
        model: Sequential,
        constraints: Dict[int, PruneSpec],
    ) -> None:
        if not constraints:
            raise ConfigurationError("ADMMPruner needs at least one constraint")
        self.model = model
        self.constraints: Dict[int, PruneSpec] = {}
        self._z: Dict[int, np.ndarray] = {}
        self._u: Dict[int, np.ndarray] = {}
        for idx, spec in constraints.items():
            if idx < 0 or idx >= len(model.layers):
                raise ConfigurationError(f"layer index {idx} out of range")
            layer = model.layers[idx]
            if not isinstance(layer, Conv2D):
                raise ConfigurationError(
                    f"layer {idx} is {type(layer).__name__}; structured "
                    "pruning targets Conv2D layers"
                )
            self.constraints[idx] = spec
            w = layer.weight.data
            self._z[idx] = project(w, spec.keep_ratio, spec.kind)
            self._u[idx] = np.zeros_like(w)

    # -- ADMM steps ---------------------------------------------------------

    def proximal_grad(self) -> None:
        """Add ``rho * (W - Z + U)`` to each constrained layer's gradient.

        Installed as the ``extra_grad`` hook of :func:`repro.nn.model.fit`.
        """
        for idx in self.constraints:
            p = self.model.layers[idx].weight
            p.grad += self.rho * (p.data - self._z[idx] + self._u[idx])

    def dual_update(self) -> float:
        """Refresh ``Z`` and ``U``; returns the max primal residual
        ``||W - Z||_inf`` (a convergence signal)."""
        residual = 0.0
        for idx, spec in self.constraints.items():
            w = self.model.layers[idx].weight.data
            self._z[idx] = project(w + self._u[idx], spec.keep_ratio, spec.kind)
            self._u[idx] += w - self._z[idx]
            residual = max(residual, float(np.max(np.abs(w - self._z[idx]))))
        return residual

    def run(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        *,
        admm_iterations: int = 3,
        epochs_per_iteration: int = 2,
        lr: float = 0.02,
        batch_size: int = 32,
        rng: Optional[np.random.Generator] = None,
    ) -> List[float]:
        """Alternate SGD epochs (with the proximal term) and dual updates.

        Returns the primal residual after each ADMM iteration.
        """
        rng = rng or np.random.default_rng(0)
        residuals = []
        for _ in range(admm_iterations):
            fit(
                self.model,
                x_train,
                y_train,
                epochs=epochs_per_iteration,
                batch_size=batch_size,
                optimizer=SGD(self.model.parameters(), lr=lr, momentum=0.9),
                rng=rng,
                extra_grad=self.proximal_grad,
            )
            residuals.append(self.dual_update())
        return residuals

    def finalize(self) -> Dict[int, np.ndarray]:
        """Install hard structured masks on the constrained layers.

        Returns the masks; the caller should fine-tune afterwards (masked
        weights stay zero thanks to :class:`~repro.nn.module.Parameter`).
        """
        masks = {}
        for idx, spec in self.constraints.items():
            p = self.model.layers[idx].weight
            mask = structured_mask(p.data, spec.keep_ratio, spec.kind)
            p.set_mask(mask)
            masks[idx] = mask
        return masks
