"""Worker processes for the service's fleet-executed jobs.

Simulating a study's scenarios is GIL-bound Python, so two service
threads running fleet-executed studies side by side share one CPU.
:class:`StudyService` therefore hands each such job to a long-lived
worker process, one per queue thread.  How it starts depends on when:

* ``fork``, eagerly, from :class:`StudyService`'s constructor when no
  other thread is alive.  ``repro serve`` builds its service before
  ``serve_http`` starts a thread, so its workers start this way: a fork
  costs tens of milliseconds where a ``spawn`` re-imports numpy and
  ``repro``.  Fork is safe there and nowhere later: a child forked from
  a threaded process can inherit a mutex another thread holds.
* ``spawn``, lazily, on a queue thread's first fleet-executed job, in
  every other case: a service built while other threads run (a test
  process, an embedding application), and every respawn after a lost
  or timed-out worker, since the queue threads are running by then.

Direct studies stay on the thread (see
:meth:`~repro.serve.service.StudyService._execute`).

Before it forks, a service built with ``warm=True`` (``repro serve``)
compiles the atom programs of every registered fleet-executed study's
default scenarios (see
:func:`warm_programs`), so forked workers inherit them instead of each
compiling its own; fresh seeds share those programs, since a program
depends on a model's architecture and masks, not its weights.

The worker runs plain :func:`~repro.study.core.run_study` with one
:class:`~repro.fleet.cache.ModelCache`, replaced by an empty one after
a job that leaves it holding more than ``WORKER_MODELS`` models (each
fresh seed is a new model); the new cache keeps the old one's
trajectory memo, since a fresh seed replays the trajectories of earlier
seeds (see :class:`~repro.fleet.cache.TrajectoryMemo`).
It is single-threaded, so a pooled job forks its fleet pool from a
process with no other threads.  The service keeps the only
:class:`~repro.store.cache.ResultStore`: the worker's ``run_study`` gets
a :class:`_StoreProxy` whose calls travel over the worker's pipe and
are applied by the dispatching thread, so per-scenario streaming,
resume and the table archive work as in-process.  A fleet run costs
the pipe one lookup round trip (all its keys in one call) and one
one-way message per finished scenario (see :class:`_StoreProxy`).

The worker is a non-daemon :class:`~repro.procs.Child` (its own
process group, stopped at interpreter exit).  Its pipe carries,
service to worker: a job ``(spec, rules, obs_on, use_store)``, a store
call's answer, or ``None`` (stop).  Worker to service: ``("ready",)``
once started (awaited at start for a spawned worker, whose imports a
job's timeout must not count, and skipped by a forked worker's first
job), store calls and puts, then the job's :class:`~repro.procs.Reply`.
Failures keep the fault model of :mod:`repro.faults`:

* EOF on the pipe (the worker died) raises
  :class:`~repro.errors.WorkerLostError`, which the retry policy
  retries on a respawned worker;
* an exception in the job is re-raised in the service, chained to the
  worker's traceback (what the job's ``error`` shows);
* a job past its ``timeout_s`` stops the worker (its process group)
  and raises :class:`TimeoutError`; the next job respawns it.
"""

from __future__ import annotations

import threading
import time
from typing import Optional, Tuple

from repro import procs
from repro.errors import ServiceClosedError, WorkerLostError
from repro.faults import inject as _inject
from repro.obs import metrics as _obs
from repro.obs import spans as _spans
from repro.store.cache import encode_record

#: How long :meth:`ServeWorker.stop` waits for a worker to exit after
#: its stop message before terminating it.
STOP_WAIT_S = 10.0

#: Models a worker's ModelCache may hold between jobs; past it the
#: worker starts a fresh cache.  One job needs at most three (fig7's
#: tasks), and a fresh-seed job shares no model with earlier jobs, so
#: a reset costs nothing an LRU would keep under fresh-seed traffic.
WORKER_MODELS = 8


class _StoreProxy:
    """The worker's stand-in for the service's ``ResultStore``.

    ``lookup`` (one call per fleet run, for all its keys), ``flush``,
    ``load_table`` and ``save_table`` are round trips: the dispatching
    thread applies them to the real store and answers ``(ok, value)``; a
    failure there is raised here, where ``run_study`` would have seen it
    in-process.  ``put`` is one way: the result is encoded here (see
    :func:`~repro.store.cache.encode_record`) and the service appends the
    record in pipe order.  If that append raises, the service answers
    the worker's next round trip with the error instead (a fleet run's
    final ``flush`` is one), so the run fails as it would in-process.
    Durability is unchanged: a put is only buffered until ``flush``.
    """

    def __init__(self, conn) -> None:
        self._conn = conn

    def _call(self, method: str, *args):
        self._conn.send(("store", method, args))
        ok, value = self._conn.recv()
        if not ok:
            raise value
        return value

    def lookup(self, keys):
        return self._call("lookup", keys)

    def put(self, key, result) -> None:
        self._conn.send(("put", key, encode_record(result)))

    def flush(self) -> None:
        self._call("flush")

    def load_table(self, key):
        return self._call("load_table", key)

    def save_table(self, key, table) -> None:
        self._call("save_table", key, table)


def warm_programs() -> None:
    """Compile the programs of every registered fleet-executed study's
    default-profile, fast-engine scenarios into the process-wide
    :data:`~repro.sim.fastsim.PROGRAM_CACHE`.

    The models it prepares are its own and dropped on return; only the
    compiled programs stay.  It passes no fault site (model builds go
    straight to a :class:`~repro.fleet.cache.ModelCache`, not through
    :meth:`~repro.fleet.runner.FleetRunner.prepare_models`) and starts
    no thread, so a fork right after it stays safe.  It also imports the
    fleet runner, which no warm step calls, so that the workers forked
    after it inherit every module a fleet-executed job runs.
    """
    import repro.fleet.runner  # noqa: F401
    from repro.experiments.common import make_runtime
    from repro.fleet.cache import ModelCache
    from repro.sim.fastsim import PROGRAM_CACHE
    from repro.study.core import Profile, StudyContext, get_study, study_names

    ctx = StudyContext(Profile(), engine="fast")
    models = ModelCache()
    with _spans.span("serve.warm"):
        for name in study_names():
            study = get_study(name)
            if study.fleet_executed:
                for scenario in study.scenarios(ctx):
                    PROGRAM_CACHE.get(
                        make_runtime(scenario.runtime, models.get(scenario)))


def _worker_main(conn) -> None:
    """The worker process: run jobs from ``conn`` until told to stop.

    It starts as a :class:`~repro.procs.Child`, so fault sites inside
    ``run_study`` (model builds, fleet pool workers) fire here under the
    service's fault plan, and each job's reply carries its metrics
    delta.
    """
    import multiprocessing

    from repro.fleet.cache import ModelCache
    from repro.study.core import run_study

    # A spawned process inherits "spawn" as its default start method.
    # Restore the platform's, so a pooled job starts its fleet pool as
    # ``repro run`` does (fork on Linux: this process has no threads).
    multiprocessing.set_start_method(None, force=True)
    cache = ModelCache()
    store = _StoreProxy(conn)

    def job(spec, rules, use_store) -> Tuple:
        nonlocal cache
        try:
            for rule, ordinal in rules:
                _inject.trigger(rule, "serve.execute", ordinal)
            run = run_study(
                spec.study, engine=spec.engine, profile=spec.profile,
                store=store if use_store else None,
                workers=spec.workers, parallel=spec.parallel,
                on_error=spec.on_error, cache=cache,
            )
            failures = run.report.failures if run.report is not None else 0
            return run.table, run.from_table_cache, failures == 0
        finally:
            if len(cache) > WORKER_MODELS:
                # Between jobs no run holds a model or a keyed lock, so
                # the whole cache (models, their logits memos, locks)
                # can go.  Its trajectory memo holds no model and
                # serves every later fresh seed: it stays.
                cache = ModelCache(cache.trajectories)
            _obs.gauge("serve.worker.models", len(cache))
            _obs.gauge("serve.worker.trajectories", len(cache.trajectories))

    conn.send(("ready",))
    for spec, rules, obs_on, use_store in procs.requests(conn):
        if obs_on:
            _obs.enable()
        else:
            _obs.disable()
        conn.send(procs.reply(job, spec, rules, use_store))


class ServeWorker:
    """The service side of one worker process, used by one thread.

    :meth:`close` may run on another thread while a job is dispatched
    (a shutdown whose drain timed out); the dispatch then sees the
    worker's pipe reach EOF, like any lost worker.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        #: How the current (or last) worker process started.
        self.start_method: Optional[str] = None
        self._child: Optional[procs.Child] = None
        self._closed = False
        self._lock = threading.Lock()

    def run(self, job, store, timeout_s: Optional[float]) -> Tuple:
        """Run ``job`` in the worker: ``(table, from_cache, cacheable)``."""
        child = self._child or self.start()
        spec = job.spec
        rules = _inject.draw("serve.execute") if _inject.ENABLED else ()
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        # The first error applying a one-way put; the next round trip
        # answers with it, and later puts of the run are dropped (the
        # in-process run would have stopped at that put).
        put_error = None
        try:
            child.send((spec, rules, _obs.ENABLED, store is not None))
            while True:
                msg = child.recv(deadline)
                if msg is None or isinstance(msg, procs.Reply):
                    break
                if msg[0] == "ready":
                    continue
                if msg[0] == "put":
                    if put_error is None:
                        _, key, record = msg
                        try:
                            store.put(key, record)
                        except Exception as exc:
                            put_error = exc
                    continue
                _, method, args = msg
                try:
                    answer = (True, getattr(store, method)(*args))
                except Exception as exc:
                    answer = (False, procs.portable(exc))
                if put_error is not None:
                    answer = (False, procs.portable(put_error))
                    put_error = None
                child.send(answer)
        except WorkerLostError:
            self._lost(child, f"{job.id} ({spec.study})")
        if msg is None:
            self.stop(wait_s=0.0)
            if _obs.ENABLED:
                _obs.count("serve.jobs_timed_out")
            raise TimeoutError(
                f"job {job.id} ({spec.study}) exceeded its "
                f"{timeout_s}s timeout"
            )
        outcome = msg.unwrap()
        if put_error is not None:
            raise put_error
        return outcome

    def stop(self, *, wait_s: float = STOP_WAIT_S) -> None:
        """Stop the worker (see :meth:`repro.procs.Child.stop`); a later
        job respawns it."""
        with self._lock:
            child, self._child = self._child, None
        if child is not None:
            child.stop(wait_s)

    def close(self) -> None:
        """Stop the worker for good: later jobs are refused."""
        self._closed = True
        self.stop()

    def start(self, method: str = "spawn") -> procs.Child:
        """Start the worker process by ``method``.

        ``fork`` is only safe while the calling process has no other
        thread (see the module docstring).  The worker is not a daemon
        (daemonic processes may not start a fleet pool), so it runs in
        its own process group: a terminal's Ctrl-C reaches only the
        service, which stops its workers once drained, and a stop ends
        the worker together with its fleet pool.
        """
        if self._closed:
            raise ServiceClosedError(
                "service is shutting down; worker not restarted"
            )
        child = procs.Child(_worker_main, method=method, name=self.name,
                            daemon=False).start()
        with self._lock:
            self._child = child
            self.start_method = method
        if _obs.ENABLED:
            _obs.count("serve.worker_starts")
        if method == "spawn":
            try:
                child.recv()  # ("ready",): its imports are done
            except WorkerLostError:
                self._lost(child, "starting")
        return child

    def _lost(self, child: procs.Child, what: str) -> None:
        self.stop(wait_s=0.0)
        raise WorkerLostError(what, f"serve worker {self.name} exited "
                                    f"with code {child.proc.exitcode}")
