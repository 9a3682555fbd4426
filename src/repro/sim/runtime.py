"""Runtime interface consumed by the intermittent machine.

A runtime couples (a) a compiled atom program encoding costs and progress
semantics with (b) the numeric inference path that produces logits.  The
four runtimes of the paper's evaluation implement this interface:

==========  ==================  ===============  ====================
runtime     model               atoms            progress semantics
==========  ==================  ===============  ====================
BASE        dense, CPU          layer loops      none (restart)
SONIC       dense, CPU          element loops    commit every iteration
TAILS       dense, LEA+DMA      vector ops       commit after vector op
ACE         compressed, LEA     vector ops       none (restart)
ACE+FLEX    compressed, LEA     vector ops       state bits + on-demand
                                                 snapshots
==========  ==================  ===============  ====================
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.sim.atoms import Atom


class InferenceRuntime:
    """Base class; subclasses set the class attributes and implement
    :meth:`build_atoms` / :meth:`compute_logits`."""

    #: Display name used in experiment tables.
    name: str = "runtime"

    #: Whether progress commits in the atom program are honoured.
    commit_enabled: bool = True

    #: FLEX's on-demand checkpointing: snapshot volatile intermediates when
    #: the voltage monitor warns.
    snapshot_on_warning: bool = False

    def build_atoms(self) -> List[Atom]:
        """Compile one inference into the atom program."""
        raise NotImplementedError

    def program_signature(self) -> Optional[Tuple]:
        """Plain values that determine :meth:`build_atoms` up to labels.

        Runtimes built on a planner return its signature (e.g.
        :func:`repro.ace.plan.plan_signature`), which costs far less than
        the atoms; ``None`` (the default) makes a program cache key on
        the atoms themselves.
        """
        return None

    def compute_logits(self, x: np.ndarray) -> np.ndarray:
        """Numeric inference for a single sample ``x`` (no batch dim)."""
        raise NotImplementedError

    def compute_logits_batch(self, xs: np.ndarray) -> np.ndarray:
        """Logits for a batch of samples, row ``i`` bit-identical to
        ``compute_logits(xs[i])``.

        The fast session path (:mod:`repro.sim.fastsim`) defers logits and
        computes them in one call; the fixed-point pipeline is integer
        arithmetic, so the concrete runtimes override this with a single
        batched ``qmodel.forward`` without changing a single bit.  This
        default falls back to the per-sample path, which is always exact.
        """
        return np.stack([self.compute_logits(x) for x in xs])

    def restore_words(self) -> int:
        """FRAM words read back when resuming after a power failure."""
        return 2 if self.commit_enabled else 0

    def describe(self) -> str:
        return self.name
