"""Shared cache for expensive model artifacts.

Preparing a quantized model (:func:`repro.experiments.common.
prepare_quantized`) is by far the costliest step of a scenario — building
the architecture, applying pruning masks, and calibrating activation
grids.  A fleet sweeping 5 runtimes x 4 traces x 3 capacitors over one
task needs *one* model, not sixty.  :class:`ModelCache` memoizes prepared
models by :attr:`Scenario.model_key` so the runner pays once per distinct
(task, compression, pruning, seed, calibration) combination, and exposes
hit/miss counters so tests and reports can verify the sharing actually
happens.

Cached models are execution-stateless except for their overflow
monitor, which :func:`~repro.fleet.runner.execute_scenario` treats as
per-scenario scratch (reset before each session, snapshotted into the
:class:`~repro.fleet.report.ScenarioResult`).  Read overflow statistics
from results, never from a cached model after a fleet run.

A cache also owns a :class:`TrajectoryMemo`: the logits-free session
trajectories of the fast engine's serial path, which another seed's
scenario over the same program and supply reuses.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import List, Optional, Sequence, Tuple

from repro.concurrency import KeyedLocks, Memo
from repro.fleet.scenario import Scenario
from repro.obs import spans as _spans
from repro.rad.quantize import QuantizedModel
from repro.sim.results import RunResult

#: Session trajectories a :class:`TrajectoryMemo` keeps.  The six
#: fleet-executed studies' default profiles replay 90 distinct ones at
#: one seed, and each further seed adds one (``sweep-trace``'s RF cell).
TRAJECTORY_MEMO_SIZE = 256


def _logits_free(run: RunResult) -> RunResult:
    """A copy of ``run`` without logits, owning its component dict."""
    return dataclasses.replace(
        run, logits=None, predicted_class=None,
        energy_by_component=dict(run.energy_by_component))


class TrajectoryMemo(Memo):
    """Logits-free :class:`~repro.sim.results.RunResult` lists of fast
    harvested or continuous sessions, keyed on what the replay reads.

    A fast session's trajectory (times, energies, reboots, checkpoints,
    DNFs) is a function of its compiled program and its supply and
    session knobs; a sample reaches only its logits.  So the key is the
    program that :data:`~repro.sim.fastsim.PROGRAM_CACHE` returned (by
    identity: fresh seeds share it through its content key, and the
    entry holds it, so its id is never reused) and the scenario with
    ``name``, ``seed`` and ``model_seed`` blanked.  A
    :class:`~repro.concurrency.Memo` of ``TRAJECTORY_MEMO_SIZE`` entries;
    :meth:`get` and :meth:`put` copy, so no caller shares a result
    object with the memo or with another caller.
    """

    def __init__(self) -> None:
        super().__init__(TRAJECTORY_MEMO_SIZE, "fleet.trajectory_memo")

    @staticmethod
    def _key(program, scenario: Scenario) -> Tuple:
        return (id(program), dataclasses.replace(
            scenario, name="", seed=0, model_seed=0))

    def get(self, program, scenario: Scenario) -> Optional[List[RunResult]]:
        """Fresh logits-free copies of the trajectory, or ``None``."""
        entry = super().get(self._key(program, scenario))
        if entry is None:
            return None
        return [_logits_free(run) for run in entry[1]]

    def put(self, program, scenario: Scenario,
            results: Sequence[RunResult]) -> None:
        """Keep ``results`` (copied, logits dropped) under the key."""
        # The entry holds the program, so its id in the key is never reused.
        super().put(self._key(program, scenario),
                    (program, tuple(_logits_free(run) for run in results)))


class ModelCache(Memo):
    """Memoized ``prepare_quantized`` keyed by :attr:`Scenario.model_key`.

    An unbounded :class:`~repro.concurrency.Memo` with exact
    ``hits``/``misses``: racing first requests for the *same* key build
    exactly once (the others wait and take the winner's model), while
    distinct keys build fully concurrently — model builds run for
    seconds, so one global build lock would serialize a service's
    unrelated jobs.

    ``trajectories`` is the :class:`TrajectoryMemo` to own (a fresh one
    by default): a serve worker that drops its models keeps its memo,
    which holds no model.
    """

    def __init__(self, trajectories: Optional[TrajectoryMemo] = None) -> None:
        super().__init__(None, "fleet.model_cache")
        self._execution_locks = KeyedLocks()
        self.trajectories = (trajectories if trajectories is not None
                             else TrajectoryMemo())

    def execution_lock(self, key: Tuple) -> threading.Lock:
        """Per-model-key lock serializing *execution* on a shared model.

        Cached models are execution-stateless except for their overflow
        monitor (per-scenario scratch, see the module docstring), so two
        threads must not run scenarios on the same cached model at once.
        :class:`~repro.fleet.runner.FleetRunner`'s serial path holds this
        around each scenario; scenarios on distinct models stay parallel.
        """
        return self._execution_locks.lock(key)

    def get(self, scenario: Scenario) -> QuantizedModel:
        """The scenario's prepared model, building it on first request."""
        def build() -> QuantizedModel:
            # Imported lazily: experiments.common pulls in every runtime.
            from repro.experiments.common import prepare_quantized

            with _spans.span("fleet.model_build", task=scenario.task,
                             compressed=scenario.compressed,
                             pruned=scenario.pruned):
                return prepare_quantized(
                    scenario.task,
                    compressed=scenario.compressed,
                    pruned=scenario.pruned,
                    seed=scenario.model_seed,
                    calib_n=scenario.calib_n,
                )

        return self.get_or_build(scenario.model_key, build)

    def summary(self) -> str:
        return (
            f"model cache: {len(self)} unique models, "
            f"{self.hits} hits / {self.misses} misses"
        )
