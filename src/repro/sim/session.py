"""Multi-inference sensing sessions.

Real deployments do not run one inference: a sensor wakes up, classifies,
sleeps, and repeats, all on the same harvested supply.  A
:class:`SensingSession` runs a stream of samples back-to-back through one
runtime on one device, carrying the capacitor state (and wall clock)
across inferences, and reports throughput/energy statistics — the
deployment-level view of Figure 7's per-inference numbers.

A session is still one device on one supply.  For populations of devices
under diverse power conditions — many sessions executed in parallel and
aggregated into distributions — see :mod:`repro.fleet`, which wraps this
class in a declarative scenario engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels import warm_quantized_model
from repro.obs import metrics as _obs
from repro.obs import spans as _spans
from repro.power.monitor import VoltageMonitor
from repro.sim.fastsim import make_machine
from repro.sim.results import RunResult
from repro.sim.runtime import InferenceRuntime


@dataclass
class SessionStats:
    """Aggregate statistics of a sensing session."""

    runtime: str
    results: List[RunResult] = field(default_factory=list)

    @property
    def inferences(self) -> int:
        return len(self.results)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.results if r.completed)

    @property
    def total_wall_time_s(self) -> float:
        return sum(r.wall_time_s for r in self.results)

    @property
    def total_energy_j(self) -> float:
        return sum(r.energy_j for r in self.results)

    @property
    def total_reboots(self) -> int:
        return sum(r.reboots for r in self.results)

    @property
    def throughput_hz(self) -> float:
        """Completed inferences per second of wall-clock time."""
        if self.total_wall_time_s <= 0:
            return 0.0
        return self.completed / self.total_wall_time_s

    def accuracy(self, labels: Sequence[int]) -> float:
        """Fraction of completed inferences predicting the true label."""
        if len(labels) != self.inferences:
            raise ConfigurationError(
                f"{len(labels)} labels for {self.inferences} inferences"
            )
        hits = 0
        for r, y in zip(self.results, labels):
            if r.completed and r.predicted_class == int(y):
                hits += 1
        if self.completed == 0:
            return 0.0
        return hits / self.completed

    def summary(self) -> str:
        return (
            f"{self.runtime}: {self.completed}/{self.inferences} inferences, "
            f"{self.total_wall_time_s:.2f} s wall, "
            f"{self.total_energy_j * 1e3:.2f} mJ, "
            f"{self.total_reboots} power failures, "
            f"{self.throughput_hz:.2f} inf/s"
        )


class SensingSession:
    """Run a stream of samples through one runtime on a shared supply.

    ``engine`` selects the simulation engine: ``"reference"`` (the
    stepwise :class:`~repro.sim.machine.IntermittentMachine`) or
    ``"fast"`` (the precompiled :class:`~repro.sim.fastsim.FastMachine`,
    bit-identical results — see ``repro.sim.fastsim``).  The fast path
    additionally batches ``compute_logits`` across the session's
    completed inferences, which is exact because the quantized pipeline
    is integer arithmetic.
    """

    def __init__(
        self,
        device,
        runtime: InferenceRuntime,
        *,
        monitor: Optional[VoltageMonitor] = None,
        stall_limit: int = 6,
        give_up_after_dnf: int = 2,
        engine: str = "reference",
    ) -> None:
        if give_up_after_dnf < 1:
            raise ConfigurationError("give_up_after_dnf must be >= 1")
        self.machine = make_machine(
            device, runtime, engine=engine, monitor=monitor,
            stall_limit=stall_limit,
        )
        self.engine = engine
        self.runtime = runtime
        self.give_up_after_dnf = give_up_after_dnf
        # Hoist kernel-plan construction out of the per-sample hot loop:
        # prebuild the FFT/BCM plans for the runtime's quantized model so
        # the first compute_logits call (or deferred batch) starts warm.
        qmodel = getattr(runtime, "qmodel", None)
        if qmodel is not None:
            warm_quantized_model(qmodel)
        # Same hoist on the simulation side: program compilation (fast
        # engine) / atom validation (reference) happen now, not on the
        # first sample.
        self.machine.warm()

    def run(self, samples: np.ndarray) -> SessionStats:
        """Process ``samples`` sequentially; stops early after repeated
        DNFs (a dead supply will never recover within the session).

        The fast engine defers logits during the loop and fills them in
        one batch afterwards (``pending`` stays empty on the reference
        engine).  ``compute_logits`` never touches device/supply/meter
        state, so moving it after the bookkeeping loop cannot change any
        simulated number, and batching is bit-exact on the integer
        inference path (asserted by the conformance suite).
        """
        stats = SessionStats(runtime=self.runtime.name)
        # Overflow saturations are observed as a monitor *delta* around
        # the whole session (engine-identical by the bit-identity
        # contract); the simulation itself is untouched.
        _rec = _obs.ENABLED
        if _rec:
            _qmon = getattr(self.runtime, "qmodel", None)
            _qmon = getattr(_qmon, "monitor", None)
            _overflow0 = _qmon.total if _qmon is not None else 0
        consecutive_dnf = 0
        pending = []  # (result, sample) pairs awaiting logits
        with _spans.span("session.sense", runtime=self.runtime.name,
                         engine=self.engine, samples=len(samples)):
            for x in samples:
                result, needs_logits = self.machine.run_deferred(x)
                stats.results.append(result)
                if needs_logits:
                    pending.append((result, x))
                if result.completed:
                    consecutive_dnf = 0
                else:
                    consecutive_dnf += 1
                    if consecutive_dnf >= self.give_up_after_dnf:
                        break
        self._fill_logits(pending)
        if _rec:
            _obs.count("session.sessions")
            _obs.count("session.samples", stats.inferences)
            if _qmon is not None and _qmon.total != _overflow0:
                _obs.count("machine.overflow_saturations",
                           _qmon.total - _overflow0)
        return stats

    def run_known(self, results: List[RunResult],
                  samples: np.ndarray) -> SessionStats:
        """:meth:`run`'s stats over ``samples``, given ``results``: the
        logits-free outcome of a fast run with this session's program,
        supply and knobs (a :class:`~repro.fleet.cache.TrajectoryMemo`
        entry).

        Nothing is simulated: a fast trajectory never reads a sample
        (``x`` reaches only the logits), so only the completed samples'
        logits are computed, in the one batch :meth:`run` computes.
        """
        self._fill_logits(
            [(r, x) for r, x in zip(results, samples) if r.completed])
        return SessionStats(runtime=self.runtime.name, results=results)

    def _fill_logits(self, pending) -> None:
        """Fill each ``(result, sample)`` pair's logits in one batch."""
        if not pending:
            return
        with _spans.span("session.compute", runtime=self.runtime.name,
                         batch=len(pending)):
            logits = self.runtime.compute_logits_batch(
                np.stack([x for _, x in pending])
            )
        for (result, _), row in zip(pending, logits):
            result.logits = row
            result.predicted_class = int(np.argmax(row))
