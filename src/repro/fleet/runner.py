"""Fleet execution: many independent sensing sessions, optionally parallel.

Each scenario is an isolated simulation — its own device, supply and
runtime instance; the only thing scenarios share is read-only input — so
a fleet is embarrassingly parallel.  :class:`FleetRunner` exploits that
with a pool of worker processes:

1. the parent resolves every distinct :attr:`Scenario.model_key` through a
   :class:`~repro.fleet.cache.ModelCache` (N scenarios pay for U <= N
   model preparations, not N);
2. the prepared models are shipped to each worker once, when it starts
   (not once per task);
3. each serial loop and each worker draws every distinct
   :attr:`Scenario.dataset_key` once, on first use, rendering only the
   samples the run's scenarios read, and hands the read-only stream to
   every later scenario sharing it;
4. workers execute scenarios with :func:`execute_scenario` — the *same*
   function the serial path uses — so parallel results are bit-identical
   to serial results for the same specs.

Execution is *streaming*: results come back through per-worker reply
pipes and are committed one at a time — to a durable
:class:`~repro.store.cache.ResultStore` when one is attached — then
reassembled into input order at the end.  A scenario that raises is
captured in its worker and returned as a DNF-style failure record
carrying the scenario name; ``on_error="record"`` keeps the fleet
running with the failure as an error row, ``on_error="raise"`` (the
default) stops at the first failure with a
:class:`~repro.errors.ScenarioExecutionError` — but either way the
results committed before it are already safe in the store.

The pool is *supervised* rather than a bare ``multiprocessing.Pool``:
each worker is a :class:`~repro.procs.Child` with its own pipe, and the
parent dispatches exactly one scenario per worker at a time, so a
worker killed mid-scenario (OOM killer, SIGKILL, a ``crash`` fault
from :mod:`repro.faults`) is detected as EOF on its pipe, its
in-flight scenario is re-dispatched under a bounded deterministic
:class:`~repro.faults.retry.RetryPolicy`, and the dead worker is
respawned.  A scenario that exhausts its retry budget becomes
a :class:`~repro.errors.WorkerLostError` (``error_kind="worker_lost"``
as an error row under ``on_error="record"``); a pool that keeps
collapsing past its respawn budget degrades to serial execution in the
parent with a warning.  Because scenario execution is deterministic, a
retried scenario's result is bit-identical to what the lost attempt
would have produced — recovery never changes a single output bit.

Determinism holds because every source of randomness is seeded from the
scenario itself (dataset stream from ``seed``, model from ``model_seed``,
stochastic traces from ``trace.seed``) and the simulator is pure
floating-point arithmetic with no wall-clock or cross-scenario coupling.
That same determinism is what makes durable results *cacheable*: a
result replayed from a store is bit-identical to re-simulating it.
"""

from __future__ import annotations

import itertools
import os
import time
import traceback
import warnings
from collections import deque
from typing import (
    Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from repro import ENGINES, ON_ERROR, procs
from repro.errors import (
    ConfigurationError,
    ScenarioExecutionError,
    WorkerLostError,
)
from repro.faults import inject as _inject
from repro.faults.retry import RetryPolicy, call_with_retry
from repro.fleet.cache import ModelCache, TrajectoryMemo
from repro.fleet.report import FleetReport, ScenarioResult
from repro.fleet.scenario import Scenario
from repro.nn.data import Dataset
from repro.obs import metrics as _obs
from repro.obs import spans as _spans
from repro.rad.quantize import QuantizedModel

#: How long a clean pool's workers get to exit on their sentinels.
_JOIN_S = 5.0
#: Cap on the pre-respawn backoff so one crashy worker cannot stall the
#: supervisor loop (and the other workers' result handling) for long.
_RESPAWN_SLEEP_CAP_S = 0.5


def execute_scenario(
    scenario: Scenario,
    qmodel: QuantizedModel,
    engine: str = "reference",
    dataset: Optional[Dataset] = None,
    trajectories: Optional[TrajectoryMemo] = None,
) -> ScenarioResult:
    """Run one scenario end to end and return its result record.

    Used verbatim by the serial path and by pool workers, which is what
    makes the two execution modes produce identical results.  ``engine``
    selects the simulation engine (``"reference"`` or ``"fast"``; see
    :mod:`repro.sim.fastsim` — results are bit-identical either way).
    ``dataset`` is the scenario's input stream, the draw of
    :attr:`Scenario.dataset_key`; when ``None`` it is drawn here.
    ``trajectories`` (the serial fast path's) supplies the session's
    logits-free trajectory when an earlier scenario replayed the same
    program and supply, and keeps it otherwise; only the fast machine's
    exact replay reads or fills it, never the reference machine.
    """
    from repro.experiments.common import make_dataset, make_runtime
    from repro.hw.board import msp430fr5994
    from repro.power import VoltageMonitor
    from repro.sim.fastsim import FastMachine
    from repro.sim.session import SensingSession

    harvester = scenario.build_harvester()  # None for mains scenarios
    device = msp430fr5994(supply=harvester)
    runtime = make_runtime(scenario.runtime, qmodel)
    monitor = None
    if runtime.snapshot_on_warning and harvester is not None:
        if scenario.v_warn is None:
            monitor = VoltageMonitor(harvester)
        else:
            monitor = VoltageMonitor(harvester, v_warn=scenario.v_warn)
    session = SensingSession(
        device,
        runtime,
        monitor=monitor,
        stall_limit=scenario.stall_limit,
        give_up_after_dnf=scenario.give_up_after_dnf,
        engine=engine,
    )
    ds = dataset
    if ds is None:
        ds = make_dataset(*scenario.dataset_key, render=scenario.n_samples)
    # The cached model is shared across scenarios (and, serially, across
    # this whole run); its overflow monitor is per-scenario scratch.
    # Reset it here and snapshot the count into the result so overflow
    # statistics are scenario-scoped in both execution modes.
    qmodel.monitor.reset()
    samples = ds.x[: scenario.n_samples]
    program = known = None
    if trajectories is not None and isinstance(session.machine, FastMachine):
        program = session.machine.replay_program()
        if program is not None:
            known = trajectories.get(program, scenario)
    if known is not None:
        stats = session.run_known(known, samples)
    else:
        stats = session.run(samples)
        if program is not None:
            trajectories.put(program, scenario, stats.results)
    labels = tuple(int(y) for y in ds.y[: len(stats.results)])
    return ScenarioResult(scenario=scenario, stats=stats, labels=labels,
                          overflow_events=qmodel.monitor.total)


def _failure_result(
    scenario: Scenario, exc: BaseException, kind: str = "exception"
) -> ScenarioResult:
    """A DNF-style error record for a scenario whose execution raised.

    ``kind`` lands in :attr:`ScenarioResult.error_kind`: ``"exception"``
    for failures the scenario's own execution raised, ``"worker_lost"``
    for scenarios whose worker process died past the retry budget.
    """
    from repro.sim.session import SessionStats

    summary = "".join(
        traceback.format_exception_only(type(exc), exc)
    ).strip()
    return ScenarioResult(
        scenario=scenario,
        stats=SessionStats(runtime=scenario.runtime, results=[]),
        labels=(),
        error=summary,
        error_kind=kind,
    )


class _InputStreams:
    """One run's input streams, or one pool worker's copy of them.

    Each :attr:`Scenario.dataset_key` is drawn on first use and reused
    by every later scenario of ``scenarios`` that shares it.  A draw
    renders only the largest ``n_samples`` among those scenarios — a
    scenario reads no more of it — and every rendered sample is
    bit-equal to the full draw's (see
    :func:`~repro.experiments.common.make_dataset`).  Its ``x`` and
    ``y`` are made read-only, so no scenario can change the input of
    the next.  A draw that raises stores nothing.
    """

    def __init__(self, scenarios: Iterable[Scenario]) -> None:
        self._renders: Dict[Tuple, int] = {}
        for scenario in scenarios:
            key = scenario.dataset_key
            self._renders[key] = max(self._renders.get(key, 0),
                                     scenario.n_samples)
        self._drawn: Dict[Tuple, Dataset] = {}

    def get(self, scenario: Scenario) -> Dataset:
        key = scenario.dataset_key
        ds = self._drawn.get(key)
        if ds is not None:
            if _obs.ENABLED:
                _obs.count("fleet.datasets.reused")
            return ds
        # Looked up per call, so a wrapped make_dataset (tracing, tests)
        # is the one that draws.
        from repro.experiments.common import make_dataset

        ds = make_dataset(*key, render=self._renders[key])
        ds.x.setflags(write=False)
        ds.y.setflags(write=False)
        self._drawn[key] = ds
        if _obs.ENABLED:
            _obs.count("fleet.datasets.drawn")
        return ds


def _execute_captured(
    scenario: Scenario,
    qmodel: QuantizedModel,
    engine: str,
    streams: _InputStreams,
    trajectories: Optional[TrajectoryMemo] = None,
) -> ScenarioResult:
    """``execute_scenario`` with exceptions folded into a failure record.

    ``streams`` are the calling run's (or worker's) input streams;
    ``trajectories`` is passed through (the serial path's).  Only
    :class:`Exception` is captured — ``KeyboardInterrupt`` and friends
    still abort the run.
    The record (not a raised exception) is what crosses the process
    boundary, so a broken cell never tears down the pool mid-map, and
    the failure always names its scenario — a failed draw included.
    """
    try:
        with _spans.span("fleet.scenario", scenario=scenario.name,
                         runtime=scenario.runtime):
            result = execute_scenario(scenario, qmodel, engine=engine,
                                      dataset=streams.get(scenario),
                                      trajectories=trajectories)
        if _obs.ENABLED:
            _obs.count("fleet.scenarios")
        return result
    except Exception as exc:
        if _obs.ENABLED:
            _obs.count("fleet.scenarios_failed")
        return _failure_result(scenario, exc)


def _pool_worker(conn, models: Dict[Tuple, QuantizedModel], engine: str,
                 streams: _InputStreams) -> None:
    """One pool worker (a :class:`~repro.procs.Child`): run each
    scenario the parent sends and reply with its result.

    ``models`` are the prepared models, shipped once at start.
    ``streams`` is this worker's own copy of the run's input streams
    (never drawn in the parent): it lives for one run, and a respawned
    worker starts empty.  The ``fleet.worker`` fault site fires here,
    inside the child (the parent's fault plan is installed with fresh
    per-rule state, so each worker's fire pattern is a deterministic
    function of its own call sequence), which is what lets a ``crash``
    rule kill -9 a real worker without ever threatening the parent
    (serial execution never fires it).
    """
    def run(scenario: Scenario) -> ScenarioResult:
        try:
            if _inject.ENABLED:
                _inject.fire("fleet.worker", scenario=scenario.name)
        except Exception as exc:
            return _failure_result(scenario, exc)
        return _execute_captured(scenario, models[scenario.model_key],
                                 engine, streams)

    for scenario in procs.requests(conn):
        conn.send(procs.reply(run, scenario))


class FleetRunner:
    """Execute a list of scenarios, in parallel when it pays off.

    ``workers`` defaults to the CPUs available to this process; pass
    ``workers=1`` (or ``parallel=False``) for the serial fallback.  The
    pool is only spun up when there are at least two scenarios to
    *simulate* and two workers — otherwise serial execution is strictly
    cheaper.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        parallel: bool = True,
        cache: Optional[ModelCache] = None,
        engine: str = "reference",
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if workers is None:
            try:
                workers = len(os.sched_getaffinity(0))
            except AttributeError:  # pragma: no cover - non-Linux
                workers = os.cpu_count() or 1
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {engine!r} (expected one of {ENGINES})"
            )
        self.workers = workers
        self.parallel = parallel
        self.engine = engine
        self.cache = cache if cache is not None else ModelCache()
        #: Governs worker-lost re-dispatch, respawn backoff, and model
        #: build retries (see module docstring).
        self.retry = retry if retry is not None else RetryPolicy()

    def prepare_models(
        self, scenarios: Sequence[Scenario]
    ) -> Dict[Tuple, QuantizedModel]:
        """Resolve every scenario's model through the shared cache.

        Duplicate model keys are cache hits, so N scenarios still pay
        for U <= N distinct builds.  Each resolution runs under the
        runner's :class:`RetryPolicy` (builds read dataset files, so a
        transient ``OSError`` is recoverable weather) and passes the
        ``fleet.model_build`` fault site.
        """
        models: Dict[Tuple, QuantizedModel] = {}
        for s in scenarios:
            def build() -> QuantizedModel:
                if _inject.ENABLED:
                    _inject.fire("fleet.model_build", scenario=s.name)
                return self.cache.get(s)

            models[s.model_key] = call_with_retry(
                build, policy=self.retry, retry_on=(OSError,),
                site="fleet.model_build",
            )
        return models

    def run(
        self,
        scenarios: Sequence[Scenario],
        *,
        store=None,
        on_error: str = "raise",
    ) -> FleetReport:
        """Execute all scenarios and aggregate into a :class:`FleetReport`.

        ``store`` (a :class:`~repro.store.cache.ResultStore`) makes the
        run durable and resumable: scenarios whose content-addressed key
        is already in the store are replayed from it bit-identically
        (their models are never even prepared), and every freshly
        simulated result is committed to the store as it finishes — a
        killed run loses at most the store's unflushed tail.

        ``on_error`` selects the failure policy: ``"raise"`` stops at the
        first scenario whose execution raised (after committing the
        results that finished before it), ``"record"`` turns each failure
        into a DNF-style error row and keeps going.  Failures are never
        written to the store, so a later run retries them.
        """
        scenarios = list(scenarios)
        if not scenarios:
            raise ConfigurationError("no scenarios to run")
        if on_error not in ON_ERROR:
            raise ConfigurationError(
                f"unknown on_error {on_error!r} (expected one of {ON_ERROR})"
            )
        names = [s.name for s in scenarios]
        if len(set(names)) != len(names):
            raise ConfigurationError("scenario names must be unique")
        t0 = time.perf_counter()

        cached: Dict[int, ScenarioResult] = {}
        to_run: List[Tuple[int, Scenario]] = []
        keys: List[Optional[str]] = [None] * len(scenarios)
        if store is not None:
            from repro.store.cache import scenario_key
            from repro.store.records import decode_result

            keys = [scenario_key(s) for s in scenarios]
            # One call for the whole run: a serve worker's store is a
            # pipe away, and this makes it one round trip.
            payloads = store.lookup(keys)
            for i, (scenario, payload) in enumerate(zip(scenarios, payloads)):
                if payload is None:
                    to_run.append((i, scenario))
                else:
                    cached[i] = decode_result(scenario, payload)
        else:
            to_run = list(enumerate(scenarios))

        with _spans.span("fleet.model_prep", scenarios=len(to_run)):
            models = self.prepare_models([s for _, s in to_run])
        fresh: Dict[int, ScenarioResult] = {}

        def commit(index: int, result: ScenarioResult) -> None:
            fresh[index] = result
            if result.error:
                if on_error == "raise":
                    cls = (
                        WorkerLostError
                        if result.error_kind == "worker_lost"
                        else ScenarioExecutionError
                    )
                    raise cls(result.scenario.name, result.error)
                return
            if store is not None:
                with _spans.span("fleet.commit",
                                 scenario=result.scenario.name):
                    store.put(keys[index], result)

        use_pool = self.parallel and self.workers > 1 and len(to_run) > 1
        if _obs.ENABLED and cached:
            _obs.count("fleet.scenarios_cached", len(cached))
        try:
            if use_pool:
                self._run_parallel(to_run, models, commit)
            else:
                self._run_serial(to_run, models, commit)
        finally:
            # Whatever happens next, finished work is durable now.
            if store is not None:
                store.flush()

        results = [
            cached[i] if i in cached else fresh[i]
            for i in range(len(scenarios))
        ]
        wall_s = time.perf_counter() - t0
        return FleetReport(
            results=results,
            workers=self.workers if use_pool else 1,
            wall_s=wall_s,
            unique_models=len({s.model_key for s in scenarios}),
            from_cache=len(cached),
        )

    def _run_serial(
        self,
        items: List[Tuple[int, Scenario]],
        models: Dict[Tuple, QuantizedModel],
        commit: Callable[[int, ScenarioResult], None],
    ) -> None:
        """Execute ``items`` one at a time in this process.

        Serialize per model: the cached model's overflow monitor is
        per-scenario scratch, and with a shared ModelCache (repro.serve)
        another thread's run may hold the same model.  Distinct models
        don't contend.  The input streams are this call's own, so no
        other thread ever sees them.  The fast engine reuses the cache's
        trajectory memo (see :class:`~repro.fleet.cache.TrajectoryMemo`).
        """
        streams = _InputStreams(s for _, s in items)
        trajectories = (self.cache.trajectories if self.engine == "fast"
                        else None)
        for index, scenario in items:
            with self.cache.execution_lock(scenario.model_key):
                result = _execute_captured(
                    scenario, models[scenario.model_key], self.engine,
                    streams, trajectories,
                )
            commit(index, result)

    def _run_parallel(
        self,
        items: List[Tuple[int, Scenario]],
        models: Dict[Tuple, QuantizedModel],
        commit: Callable[[int, ScenarioResult], None],
    ) -> None:
        """The supervised pool (see module docstring).

        The parent dispatches one scenario per worker at a time — so it
        always knows exactly which scenario a dead worker was holding —
        and waits on every worker's pipe at once; a worker's death shows
        up as EOF on its pipe (see :mod:`repro.procs`).  Per-scenario
        dispatch doubles as load balancing (scenarios vary widely in
        cost: DNF-heavy cells finish early, stall-heavy cells drag), and
        commit() runs — and the store grows — a scenario at a time, not
        after the whole map.
        """
        n_workers = min(self.workers, len(items))
        retry = self.retry
        if _obs.ENABLED:
            _obs.gauge("fleet.workers", n_workers)
        streams = _InputStreams(s for _, s in items)
        pending: Deque[Tuple[int, Scenario]] = deque(items)
        attempts: Dict[int, int] = {}  # index -> worker-lost count
        done: set = set()
        #: worker -> the one (index, scenario) sent and not yet answered
        inflight: Dict[procs.Child, Tuple[int, Scenario]] = {}
        respawns = 0
        respawn_budget = max(4, 2 * n_workers)
        degraded = False
        uids = itertools.count()

        def spawn() -> procs.Child:
            return procs.Child(_pool_worker, models, self.engine, streams,
                               name=f"fleet-worker-{next(uids)}").start()

        workers = [spawn() for _ in range(n_workers)]
        clean = False
        try:
            with _spans.span("fleet.dispatch", scenarios=len(items),
                             workers=n_workers):
                while len(done) < len(items):
                    for w in workers:
                        if w not in inflight and pending:
                            inflight[w] = pending.popleft()
                            try:
                                w.send(inflight[w][1])
                            except WorkerLostError:
                                pass  # its EOF is handled below
                    dead = []
                    for w in procs.wait(workers):
                        try:
                            reply = w.recv()
                        except WorkerLostError:
                            dead.append(w)
                            continue
                        index, _ = inflight.pop(w)
                        result = reply.unwrap()
                        done.add(index)
                        if attempts.get(index) and not result.error \
                                and _obs.ENABLED:
                            _obs.count("faults.recovered")
                            _obs.count("faults.recovered.fleet.worker")
                        commit(index, result)
                    if not dead:
                        continue
                    for w in dead:
                        w.stop(0.0)
                        lost = inflight.pop(w, None)
                        if lost is None:
                            continue
                        index, scenario = lost
                        attempts[index] = n = attempts.get(index, 0) + 1
                        if _obs.ENABLED:
                            _obs.count("fleet.worker_lost")
                        if n >= retry.max_attempts:
                            done.add(index)
                            commit(index, _failure_result(
                                scenario,
                                WorkerLostError(
                                    scenario.name,
                                    f"worker process died "
                                    f"(attempt {n}/{retry.max_attempts})",
                                ),
                                kind="worker_lost",
                            ))
                        else:
                            pending.appendleft(lost)
                    respawns += len(dead)
                    if respawns > respawn_budget:
                        degraded = True
                        break
                    if _obs.ENABLED:
                        _obs.count("fleet.respawns", len(dead))
                    time.sleep(min(retry.backoff_s(respawns),
                                   _RESPAWN_SLEEP_CAP_S))
                    workers = [spawn() if w in dead else w for w in workers]
            if degraded:
                # The pool keeps collapsing (e.g. a probability-1.0
                # crash plan, or a host OOM-killing every child): stop
                # burning respawns and finish in the parent.  Serial
                # execution never fires the fleet.worker site, so even
                # an always-crash plan completes here.
                procs.stop_all(workers, 0.0)
                workers = []
                if _obs.ENABLED:
                    _obs.count("fleet.degraded_serial")
                remaining = [it for it in items if it[0] not in done]
                warnings.warn(
                    f"fleet worker pool collapsed {respawns} times "
                    f"(budget {respawn_budget}); finishing "
                    f"{len(remaining)} scenario(s) serially",
                    RuntimeWarning,
                )
                self._run_serial(remaining, models, commit)
            clean = True
        finally:
            # A clean pool exits on its sentinels; anything else is
            # terminated (the shutdown watchdog: never hang).
            procs.stop_all(workers, _JOIN_S if clean else 0.0)
