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
the parent dispatches exactly one scenario per worker at a time and
each worker answers on its own pipe, so a worker killed mid-scenario
(OOM killer, SIGKILL, a ``crash`` fault from :mod:`repro.faults`) is
detected as EOF on its pipe, its in-flight scenario is re-dispatched
under a bounded deterministic
:class:`~repro.faults.retry.RetryPolicy`, and the dead worker is
respawned.  (A *shared* result queue would be fatal here: SIGKILL can
orphan the queue's write lock and wedge every surviving worker — with
one pipe per worker a death can only ever corrupt the dead worker's
own channel, which the parent was about to discard anyway.)  A scenario that exhausts its retry budget becomes
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

import multiprocessing
import multiprocessing.connection
import os
import time
import traceback
import warnings
from collections import deque
from typing import (
    Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from repro.errors import (
    ConfigurationError,
    ScenarioExecutionError,
    WorkerLostError,
)
from repro.faults import inject as _inject
from repro.faults.retry import RetryPolicy, call_with_retry
from repro.fleet.cache import ModelCache
from repro.fleet.report import FleetReport, ScenarioResult
from repro.fleet.scenario import Scenario
from repro.nn.data import Dataset
from repro.obs import metrics as _obs
from repro.obs import spans as _spans
from repro.obs.snapshot import merge_all
from repro.rad.quantize import QuantizedModel

#: Accepted failure policies (see :meth:`FleetRunner.run`).
ON_ERROR = ("raise", "record")

#: Supervisor poll interval: how often an idle parent checks liveness.
_POLL_S = 0.05
#: Graceful/forced shutdown budget per escalation step (the watchdog).
_JOIN_S = 5.0
#: Cap on the pre-respawn backoff so one crashy worker cannot stall the
#: supervisor loop (and the other workers' result handling) for long.
_RESPAWN_SLEEP_CAP_S = 0.5


def execute_scenario(
    scenario: Scenario,
    qmodel: QuantizedModel,
    engine: str = "reference",
    dataset: Optional[Dataset] = None,
) -> ScenarioResult:
    """Run one scenario end to end and return its result record.

    Used verbatim by the serial path and by pool workers, which is what
    makes the two execution modes produce identical results.  ``engine``
    selects the simulation engine (``"reference"`` or ``"fast"``; see
    :mod:`repro.sim.fastsim` — results are bit-identical either way).
    ``dataset`` is the scenario's input stream, the draw of
    :attr:`Scenario.dataset_key`; when ``None`` it is drawn here.
    """
    from repro.experiments.common import make_dataset, make_runtime
    from repro.hw.board import msp430fr5994
    from repro.power import VoltageMonitor
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
    stats = session.run(ds.x[: scenario.n_samples])
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
) -> ScenarioResult:
    """``execute_scenario`` with exceptions folded into a failure record.

    ``streams`` are the calling run's (or worker's) input streams.  Only
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
                                      dataset=streams.get(scenario))
        if _obs.ENABLED:
            _obs.count("fleet.scenarios")
        return result
    except Exception as exc:
        if _obs.ENABLED:
            _obs.count("fleet.scenarios_failed")
        return _failure_result(scenario, exc)


# -- worker-process plumbing --------------------------------------------------
#
# Pool workers receive the prepared models once (initializer) and look
# them up per scenario; both functions must be module-level picklables.

_WORKER_MODELS: Dict[Tuple, QuantizedModel] = {}
_WORKER_ENGINE = "reference"


def _init_worker(
    models: Dict[Tuple, QuantizedModel],
    engine: str = "reference",
    obs_on: bool = False,
) -> None:
    global _WORKER_ENGINE
    _WORKER_MODELS.clear()
    _WORKER_MODELS.update(models)
    _WORKER_ENGINE = engine
    # A forked worker inherits the parent's metric state; reset it so the
    # snapshots it ships back count only its own work (the parent absorbs
    # them on top of its own registry — no double counting).
    _obs.reset_metrics()
    _spans.clear()
    if obs_on:
        _obs.enable()
    else:
        _obs.disable()


def _supervised_worker(uid, inq, conn, models, engine, obs_on, plan,
                       streams):
    """One supervised worker process: loop ``inq`` tasks until sentinel.

    Tasks are ``(input index, scenario)``; each reply on this worker's
    own ``conn`` pipe is ``(worker uid, index, result, obs
    snapshot-or-None)``.  ``Connection.send`` writes synchronously in
    this thread — no feeder thread, no lock shared with other workers —
    so by the time the worker reads its next task the previous reply is
    fully in the pipe, and a SIGKILL can never tear a message another
    worker (or the parent) depends on.  The index rides along so the
    parent can reassemble unordered arrivals into input order; the uid
    (stable across the worker's lifetime, unique across respawns —
    unlike a reused pid) tells the parent whose in-flight slot to clear
    and whose *cumulative* metrics snapshot to keep (highest ``seq``
    per uid, merged deterministically at the end).

    ``plan`` re-installs the parent's active fault plan with fresh
    per-rule state, so each worker's fire pattern is a deterministic
    function of its own call sequence — under fork *and* spawn.  The
    ``fleet.worker`` fault site fires here, inside the child, which is
    what lets a ``crash`` rule kill -9 a real worker without ever
    threatening the parent (serial execution never fires it).
    """
    _init_worker(models, engine, obs_on)
    if plan is not None:
        _inject.install(plan)
    else:
        _inject.uninstall()
    # ``streams`` is this worker's own copy of the run's (never drawn
    # in the parent): it lives for one run, and a respawned worker
    # starts empty.
    while True:
        item = inq.get()
        if item is None:
            conn.close()
            return
        index, scenario = item
        try:
            if _inject.ENABLED:
                _inject.fire("fleet.worker", scenario=scenario.name)
        except Exception as exc:
            result = _failure_result(scenario, exc)
        else:
            result = _execute_captured(
                scenario, _WORKER_MODELS[scenario.model_key], _WORKER_ENGINE,
                streams,
            )
        payload = _obs.snapshot() if _obs.ENABLED else None
        conn.send((uid, index, result, payload))


class _WorkerHandle:
    """Parent-side view of one worker: process, task pipe, reply pipe."""

    __slots__ = ("uid", "proc", "inq", "conn", "current")

    def __init__(self, uid, proc, inq, conn) -> None:
        self.uid = uid
        self.proc = proc
        self.inq = inq
        #: Parent-side read end of the worker's private reply pipe.
        self.conn = conn
        #: The one (index, scenario) dispatched and not yet answered.
        self.current: Optional[Tuple[int, Scenario]] = None


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
        from repro.sim.fastsim import ENGINES

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
            def build(scenario: Scenario = s) -> QuantizedModel:
                if _inject.ENABLED:
                    _inject.fire("fleet.model_build", scenario=scenario.name)
                return self.cache.get(scenario)

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

            keys = [scenario_key(s, self.engine) for s in scenarios]
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
                    store.put(keys[index], result, engine=self.engine)

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
        other thread ever sees them.
        """
        streams = _InputStreams(s for _, s in items)
        for index, scenario in items:
            with self.cache.execution_lock(scenario.model_key):
                result = _execute_captured(
                    scenario, models[scenario.model_key], self.engine,
                    streams,
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
        and multiplexes the per-worker reply pipes with a short-timeout
        :func:`multiprocessing.connection.wait`; a worker's death shows
        up as EOF on its pipe (the parent closes its copy of the write
        end right after the fork, so the worker holds the only one).
        Per-scenario dispatch doubles as load balancing (scenarios vary
        widely in cost: DNF-heavy cells finish early, stall-heavy cells
        drag), and commit() runs — and the store grows — a scenario at
        a time, not after the whole map.
        """
        ctx = multiprocessing.get_context()
        procs = min(self.workers, len(items))
        retry = self.retry
        plan = _inject.active_plan()
        if _obs.ENABLED:
            _obs.gauge("fleet.workers", procs)
        streams = _InputStreams(s for _, s in items)
        pending: Deque[Tuple[int, Scenario]] = deque(items)
        attempts: Dict[int, int] = {}  # index -> worker-lost count
        done: set = set()
        # Latest cumulative snapshot per worker uid; absorbed into the
        # parent registry only after a clean run (an aborted fleet does
        # not half-count worker metrics).
        worker_snaps: Dict[int, dict] = {}
        respawns = 0
        respawn_budget = max(4, 2 * procs)
        degraded = False
        next_uid = 0
        by_uid: Dict[int, _WorkerHandle] = {}

        def spawn() -> _WorkerHandle:
            nonlocal next_uid
            uid = next_uid
            next_uid += 1
            inq = ctx.SimpleQueue()
            recv_end, send_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_supervised_worker,
                args=(uid, inq, send_end, models, self.engine,
                      _obs.ENABLED, plan, streams),
                name=f"fleet-worker-{uid}",
                daemon=True,
            )
            proc.start()
            # The worker must hold the only write end: that is what
            # turns its death — clean or kill -9 — into EOF here.
            send_end.close()
            handle = _WorkerHandle(uid, proc, inq, recv_end)
            by_uid[uid] = handle
            return handle

        def handle_msg(msg) -> None:
            uid, index, result, payload = msg
            w = by_uid.get(uid)
            if w is not None and w.current is not None \
                    and w.current[0] == index:
                w.current = None
            if payload is not None:
                prev = worker_snaps.get(uid)
                if prev is None or payload["seq"] >= prev["seq"]:
                    worker_snaps[uid] = payload
            if index in done:
                # A duplicate from the lost-then-drained race: the
                # retried execution was bit-identical, drop it.
                return
            done.add(index)
            if attempts.get(index) and not result.error and _obs.ENABLED:
                _obs.count("faults.recovered")
                _obs.count("faults.recovered.fleet.worker")
            commit(index, result)

        workers = [spawn() for _ in range(procs)]
        clean = False
        try:
            with _spans.span("fleet.dispatch", scenarios=len(items),
                             workers=procs):
                while len(done) < len(items):
                    for w in workers:
                        if w.current is None and pending:
                            w.current = pending.popleft()
                            w.inq.put(w.current)
                    ready = multiprocessing.connection.wait(
                        [w.conn for w in workers], timeout=_POLL_S
                    )
                    dead = []
                    for i, w in enumerate(workers):
                        alive = w.proc.is_alive()
                        if w.conn not in ready and alive:
                            continue
                        # Replies can sit in the pipe ahead of EOF;
                        # drain before declaring any scenario lost.
                        try:
                            while w.conn.poll():
                                handle_msg(w.conn.recv())
                        except (EOFError, OSError):
                            alive = False
                        if not alive:
                            dead.append(i)
                    if not dead:
                        continue
                    for i in dead:
                        w = workers[i]
                        w.proc.join()
                        w.conn.close()
                        lost = w.current
                        w.current = None
                        if lost is None or lost[0] in done:
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
                    for i in dead:
                        by_uid.pop(workers[i].uid, None)
                        workers[i] = spawn()
            if degraded:
                # The pool keeps collapsing (e.g. a probability-1.0
                # crash plan, or a host OOM-killing every child): stop
                # burning respawns and finish in the parent.  Serial
                # execution never fires the fleet.worker site, so even
                # an always-crash plan completes here.
                self._teardown(workers, graceful=False)
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
            self._teardown(workers, graceful=clean)
        if worker_snaps and _obs.ENABLED:
            _obs.absorb(merge_all(list(worker_snaps.values())))

    @staticmethod
    def _teardown(workers: List[_WorkerHandle], *, graceful: bool) -> None:
        """Stop the pool; never hang (the shutdown watchdog).

        Graceful exit sends each worker a sentinel and joins with a
        timeout; anything still alive after that — or everything, on
        the error path — is escalated to ``terminate()`` then
        ``kill()``, each with its own join budget, so a wedged worker
        can never hang the parent (or CI).
        """
        if not workers:
            return
        if graceful:
            for w in workers:
                try:
                    w.inq.put(None)
                except Exception:  # dead worker's pipe; nothing to stop
                    pass
            deadline = time.monotonic() + _JOIN_S
            for w in workers:
                w.proc.join(max(0.0, deadline - time.monotonic()))
        if any(w.proc.is_alive() for w in workers):
            for w in workers:
                if w.proc.is_alive():
                    w.proc.terminate()
            deadline = time.monotonic() + _JOIN_S
            for w in workers:
                w.proc.join(max(0.0, deadline - time.monotonic()))
            for w in workers:
                if w.proc.is_alive():  # pragma: no cover - last resort
                    w.proc.kill()
                    w.proc.join(1.0)
        for w in workers:
            w.conn.close()

