"""Worker processes for the service's fleet-executed jobs.

Simulating a study's scenarios is GIL-bound Python, so two service
threads running fleet-executed studies side by side share one CPU.
:class:`StudyService` therefore hands each such job to a long-lived
worker process: one per queue thread, started with ``spawn`` on that
thread's first fleet-executed job.  Never ``fork``: the service is
threaded, and a child forked from it can inherit a mutex another
thread holds.  Direct studies stay on the thread (see
:meth:`~repro.serve.service.StudyService._execute`).

The worker runs plain :func:`~repro.study.core.run_study` with one
:class:`~repro.fleet.cache.ModelCache` that lives as long as it does.
It is single-threaded, so a pooled job forks its fleet pool from a
process with no other threads.  The service keeps the only
:class:`~repro.store.cache.ResultStore`: the worker's ``run_study`` gets
a :class:`_StoreProxy` whose calls travel over the worker's pipe and
are applied by the dispatching thread, so per-scenario streaming,
resume and the table archive work as in-process, and the scenarios a
lost worker finished are already durable.

One pipe per worker carries, service to worker: a job ``(spec, rules,
obs_on, use_store)``, a store call's answer, or ``None`` (stop).
Worker to service: ``("ready",)`` once imported, a store call, then the
job's outcome, with its metrics delta when ``obs_on``.  Failures keep
the fault model of :mod:`repro.faults`:

* EOF on the pipe (the worker died) raises
  :class:`~repro.errors.WorkerLostError`, which the retry policy
  retries on a respawned worker;
* an exception in the job is re-raised in the service, chained to the
  worker's traceback (what the job's ``error`` shows);
* a job past its ``timeout_s`` terminates and joins the worker and
  raises :class:`TimeoutError`; the next job respawns it.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
import traceback
from typing import Optional, Tuple

from repro.errors import ReproError, ServiceClosedError, WorkerLostError
from repro.faults import inject as _inject
from repro.obs import metrics as _obs

#: How long :meth:`WorkerProcess.stop` waits for a worker to exit after
#: its stop message before terminating it.
STOP_WAIT_S = 10.0

#: How often a dispatching thread checks that a silent worker is alive.
_LIVENESS_S = 0.5


class _RemoteTraceback(Exception):
    """Carries a worker's formatted traceback as an exception's cause."""

    def __init__(self, text: str) -> None:
        super().__init__(text)
        self.text = text

    def __str__(self) -> str:
        return self.text


def _portable(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ReproError(f"{type(exc).__name__}: {exc}")


class _StoreProxy:
    """The worker's stand-in for the service's ``ResultStore``.

    Each call is a round trip: the dispatching thread applies it to the
    real store and answers ``(ok, value)``; a failure there is raised
    here, where ``run_study`` would have seen it in-process.
    """

    def __init__(self, conn) -> None:
        self._conn = conn

    def _call(self, method: str, *args, **kwargs):
        self._conn.send(("store", method, args, kwargs))
        ok, value = self._conn.recv()
        if not ok:
            raise value
        return value

    def lookup(self, key):
        return self._call("lookup", key)

    def put(self, key, result, *, engine: str = "") -> None:
        self._call("put", key, result, engine=engine)

    def flush(self) -> None:
        self._call("flush")

    def load_table(self, key):
        return self._call("load_table", key)

    def save_table(self, key, table) -> None:
        self._call("save_table", key, table)


def _worker_main(conn, plan) -> None:
    """The worker process: run jobs from ``conn`` until told to stop.

    ``plan`` is the service's fault plan when the worker started, armed
    here so fault sites inside ``run_study`` (model builds, fleet pool
    workers) fire in this process as they would in the service.
    """
    import multiprocessing

    from repro.fleet.cache import ModelCache
    from repro.obs import spans as _spans
    from repro.study.core import run_study

    # A spawned process inherits "spawn" as its default start method.
    # Restore the platform's, so a pooled job starts its fleet pool as
    # ``repro run`` does (fork on Linux: this process has no threads).
    multiprocessing.set_start_method(None, force=True)
    if hasattr(os, "setpgrp"):
        # Its own process group: a terminal's Ctrl-C reaches only the
        # service, which stops its workers once drained, and a timeout
        # can terminate this worker together with its fleet pool.
        os.setpgrp()
    if plan is not None:
        _inject.install(plan)
    else:
        _inject.uninstall()
    cache = ModelCache()
    store = _StoreProxy(conn)
    conn.send(("ready",))
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        if msg is None:
            return
        spec, rules, obs_on, use_store = msg
        if obs_on:
            _obs.enable()
        else:
            _obs.disable()
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
            reply = ("done", run.table, run.from_table_cache, failures == 0)
        except Exception as exc:
            reply = ("error", _portable(exc), traceback.format_exc())
        snap = None
        if obs_on:
            # This job's delta: the service absorbs it into its registry.
            snap = _obs.snapshot()
            _obs.reset_metrics()
            _spans.clear()
        conn.send(reply + (snap,))


def _next_message(proc, conn, deadline: Optional[float]):
    """The worker's next message, or None once ``deadline`` passes.

    Raises :class:`EOFError` when the worker has died.  Its pipe alone
    cannot tell: a fleet pool the worker forked holds a copy of the
    worker's end, so the worker's death reaches this side as EOF only
    once the pool is gone too.  Hence the liveness check between polls.
    """
    while True:
        wait = _LIVENESS_S
        if deadline is not None:
            wait = min(wait, max(deadline - time.monotonic(), 0.0))
        if conn.poll(wait):
            return conn.recv()
        if not proc.is_alive():
            raise EOFError
        if deadline is not None and time.monotonic() >= deadline:
            return None


def _shutdown(proc, conn, wait_s: float) -> None:
    """Ask a worker to exit, wait up to ``wait_s``, then terminate it.

    A worker that does not exit cleanly in time, or died, gets its
    process group terminated, so no fleet pool it forked outlives it.
    Always joins the worker, so it is reaped (and its peak RSS
    accounted to this process) on return.
    """
    try:
        conn.send(None)
    except OSError:
        pass
    proc.join(wait_s)
    if proc.exitcode != 0:
        try:
            os.killpg(proc.pid, signal.SIGTERM)
        except (AttributeError, OSError):
            proc.terminate()
        proc.join()
    conn.close()


class WorkerProcess:
    """The service side of one worker process, used by one thread.

    :meth:`close` may run on another thread while a job is dispatched
    (a shutdown whose drain timed out); the dispatch then sees the
    worker's end of the pipe close, like any lost worker.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._proc = None
        self._conn = None
        self._finalizer = None
        self._closed = False
        self._lock = threading.Lock()

    def run(self, job, store, timeout_s: Optional[float]) -> Tuple:
        """Run ``job`` in the worker: ``(table, from_cache, cacheable)``."""
        proc, conn = self._proc, self._conn
        if proc is None:
            proc, conn = self._start()
        spec = job.spec
        rules = _inject.draw("serve.execute") if _inject.ENABLED else ()
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        try:
            conn.send((spec, rules, _obs.ENABLED, store is not None))
            while True:
                msg = _next_message(proc, conn, deadline)
                if msg is None or msg[0] != "store":
                    break
                _, method, args, kwargs = msg
                try:
                    answer = (True, getattr(store, method)(*args, **kwargs))
                except Exception as exc:
                    answer = (False, _portable(exc))
                conn.send(answer)
        except (EOFError, OSError):
            self._lost(proc, f"{job.id} ({spec.study})")
        if msg is None:
            self.stop(wait_s=0.0)
            if _obs.ENABLED:
                _obs.count("serve.jobs_timed_out")
            raise TimeoutError(
                f"job {job.id} ({spec.study}) exceeded its "
                f"{timeout_s}s timeout"
            )
        *outcome, snap = msg
        if snap is not None:
            # Counters and durations add up; a gauge is a last value, and
            # summing one job's delta onto the last job's would inflate it.
            gauges = snap.pop("gauges")
            _obs.absorb(snap)
            for name, value in gauges.items():
                _obs.gauge(name, value)
        if outcome[0] == "error":
            _, exc, text = outcome
            raise exc from _RemoteTraceback(text)
        return tuple(outcome[1:])

    def stop(self, *, wait_s: float = STOP_WAIT_S) -> None:
        """Stop the worker (see :func:`_shutdown`); a later job respawns it."""
        with self._lock:
            proc, conn, finalizer = self._proc, self._conn, self._finalizer
            self._proc = self._conn = self._finalizer = None
        if proc is not None:
            finalizer.cancel()
            _shutdown(proc, conn, wait_s)

    def close(self) -> None:
        """Stop the worker for good: later jobs are refused."""
        self._closed = True
        self.stop()

    def _start(self) -> Tuple:
        from multiprocessing import get_context, util

        if self._closed:
            raise ServiceClosedError(
                "service is shutting down; worker not restarted"
            )
        ctx = get_context("spawn")
        conn, child = ctx.Pipe()
        # Not a daemon: daemonic processes may not start a fleet pool.
        proc = ctx.Process(
            target=_worker_main, args=(child, _inject.active_plan()),
            name=self.name,
        )
        proc.start()
        # The worker holds the only other end: its death is EOF here.
        child.close()
        with self._lock:
            self._proc, self._conn = proc, conn
            # Interpreter exit without close() stops the worker before
            # multiprocessing joins its non-daemon children.
            self._finalizer = util.Finalize(
                self, _shutdown, args=(proc, conn, 0.0), exitpriority=10
            )
        if _obs.ENABLED:
            _obs.count("serve.worker_starts")
        try:
            conn.recv()  # ("ready",): imports are done
        except (EOFError, OSError):
            self._lost(proc, "starting")
        return proc, conn

    def _lost(self, proc, what: str) -> None:
        self.stop(wait_s=0.0)
        raise WorkerLostError(
            what, f"serve worker {self.name} exited with code {proc.exitcode}"
        )
