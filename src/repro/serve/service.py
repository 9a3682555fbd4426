"""The study service: concurrent ``run_study`` behind a dedup queue.

:class:`StudyService` glues the dedup queue to the execution stack:

* worker processes for fleet-executed studies
  (:mod:`repro.serve.worker`): each queue thread hands such a job to
  its own long-lived process, which runs
  :func:`~repro.study.core.run_study` with a
  :class:`~repro.fleet.cache.ModelCache` of its own, so two threads
  simulate on two CPUs instead of taking turns on one interpreter lock.
  The constructor forks them when no other thread is alive — the last
  moment a fork is safe, since the queue threads start right after —
  optionally after compiling the fleet studies' default programs for
  them to inherit (``repro serve`` does); otherwise each thread spawns
  its own on its first fleet-executed job; direct studies (``fig8``,
  ``table1``, the ablations, ...) are 10-50 ms jobs and run on the
  thread itself;
* one optional :class:`~repro.store.cache.ResultStore`, giving jobs
  durable per-scenario resume and a finished-table archive — a service
  restarted over the same store serves archived tables without
  executing anything.  Workers reach it through their pipes, so it
  has one writer;
* an in-memory LRU of finished tables keyed by the same content
  address the store uses, which is what makes *resubmitting* a
  completed spec a dedup hit rather than a rerun.

Either way execution is plain ``run_study`` — the same function the CLI
and tests call — so a table served concurrently is bit-identical to a
serial run of the same spec.  A fleet-executed study must therefore be
importable by a fresh interpreter (registered by :mod:`repro.study`);
one registered at run time can only be served as a direct study.
``timeout_s`` bounds a job's execution: a worker process past it is
terminated and joined (the next job respawns it); a direct job runs on
a helper thread, which is abandoned at expiry with its result
discarded (never cached, never published).  Either way the job fails
with a captured timeout traceback.

Shutdown (:meth:`close`) stops intake (further submits raise
:class:`~repro.errors.ServiceClosedError`), drains or cancels the
queue, stops and joins the worker processes, and flushes the store —
completed work is durable before ``close`` returns.
"""

from __future__ import annotations

import multiprocessing
import threading
from typing import List, Optional, Tuple

from repro.concurrency import Memo
from repro.errors import (
    ConfigurationError,
    JobFailedError,
    ServiceClosedError,
)
from repro.faults import inject as _inject
from repro.faults.retry import RetryPolicy
from repro.obs import metrics as _obs
from repro.serve.queue import DONE, FAILED, Job, JobQueue, JobSpec
from repro.serve.worker import ServeWorker, warm_programs
from repro.study.core import get_study, run_study
from repro.study.table import ResultTable


class StudyService:
    """Concurrent study executor with dedup (see module docstring).

    ``workers`` is the number of queue threads, so it bounds concurrent
    executions and the worker processes (one per thread; each execution
    may itself fan out a fleet pool — size the two levels together).
    Built with no other thread alive, the service forks all its worker
    processes here, before its queue threads exist; otherwise a thread
    spawns its worker on its first fleet-executed job (see
    :mod:`repro.serve.worker` for why fork is safe only here).  With
    ``warm`` set, a forking service first compiles the fleet studies'
    default programs (:func:`~repro.serve.worker.warm_programs`, a few
    tenths of a second) for its workers to inherit: worth it for a
    long-lived service that runs fleet jobs, as ``repro serve`` is, not
    for one built for a few direct studies.  ``store`` attaches a durable
    :class:`~repro.store.cache.ResultStore`; the in-memory
    finished-table LRU holds ``TABLE_CACHE`` tables.
    """

    TABLE_CACHE = 64

    def __init__(
        self,
        *,
        workers: int = 2,
        store=None,
        retry: Optional[RetryPolicy] = None,
        warm: bool = False,
    ) -> None:
        self.store = store
        #: Per-job bounded retry on transient failures (worker-lost,
        #: timeout, injected faults).  Other exceptions — bad studies,
        #: real bugs — still fail the job on the first attempt.
        self.retry = retry if retry is not None else RetryPolicy()
        #: key -> finished ResultTable (the queue's lookup/publish).
        self._tables = Memo(self.TABLE_CACHE)
        #: Each queue thread's worker process: one forked here and not
        #: yet claimed by a thread (``_idle``), or one the thread
        #: spawns on its first fleet-executed job.  ``_procs`` holds
        #: them all for close() (None once closed).
        self._local = threading.local()
        self._procs: Optional[List[ServeWorker]] = []
        self._procs_lock = threading.Lock()
        self._idle: List[ServeWorker] = []
        if (threading.active_count() == 1
                and "fork" in multiprocessing.get_all_start_methods()):
            # No other thread exists to hold a lock the fork would copy;
            # the queue threads start below.
            if warm:
                try:
                    warm_programs()
                except Exception:
                    # Only a speedup: the workers compile on demand.
                    if _obs.ENABLED:
                        _obs.count("serve.warm_failures")
            for i in range(workers):
                proc = ServeWorker(f"serve-worker-{i}-proc")
                self._procs.append(proc)
                proc.start("fork")
            self._idle = list(self._procs)
        self.queue = JobQueue(
            self._execute,
            workers=workers,
            lookup=self._tables.get,
            publish=self._tables.put,
            retry=self.retry,
        )

    # -- public API -----------------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Validate and enqueue one job (see :meth:`JobQueue.submit`)."""
        return self.queue.submit(spec)

    def job(self, job_id: str) -> Job:
        return self.queue.job(job_id)

    def jobs(self) -> List[Job]:
        return self.queue.jobs()

    def cancel(self, job_id: str) -> bool:
        return self.queue.cancel(job_id)

    def result(
        self, job_id: str, *, timeout: Optional[float] = None
    ) -> ResultTable:
        """The finished table for ``job_id``, waiting for it if needed.

        Raises :class:`~repro.errors.JobFailedError` for failed or
        cancelled jobs (carrying the captured traceback), and
        :class:`~repro.errors.ConfigurationError` when the wait times
        out — the job itself keeps running.
        """
        job = self.queue.job(job_id)
        if not job.wait(timeout):
            raise ConfigurationError(
                f"job {job_id} still {job.state} after {timeout}s"
            )
        if job.state == DONE:
            return job.table
        if job.state == FAILED:
            raise JobFailedError(job_id, job.error or "unknown failure")
        raise JobFailedError(job_id, "job was cancelled")

    def run(self, spec: JobSpec, *, timeout: Optional[float] = None):
        """Submit and wait: the blocking one-call convenience."""
        return self.result(self.submit(spec).id, timeout=timeout)

    def counters(self) -> dict:
        return self.queue.counters()

    def health(self) -> dict:
        """The ``/healthz`` payload: liveness, depth, workers, retries."""
        counters = self.queue.counters()
        return {
            "ok": True,
            "counters": counters,
            "queue_depth": counters["queued"],
            "inflight": counters["inflight"],
            "workers": self.queue.worker_count,
            "workers_alive": self.queue.workers_alive(),
            "retry": {
                "max_attempts": self.retry.max_attempts,
                "retried": counters["retried"],
            },
        }

    def metrics(self) -> dict:
        """A :mod:`repro.obs` snapshot (schema-valid even when off)."""
        return _obs.snapshot()

    def close(
        self, *, drain: bool = True, timeout: Optional[float] = None
    ) -> None:
        """Stop intake, drain (or cancel) the queue, stop the worker
        processes, flush the store."""
        self.queue.close(drain=drain, timeout=timeout)
        with self._procs_lock:
            procs, self._procs = self._procs or [], None
        for proc in procs:
            proc.close()
        if self.store is not None:
            self.store.flush()

    def __enter__(self) -> "StudyService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution (worker threads) -------------------------------------------

    def _run_study(self, job: Job) -> Tuple[ResultTable, bool, bool]:
        """A direct study, run here on the calling thread."""
        if _inject.ENABLED:
            # The serve.execute fault site (for a worker-process job it
            # is drawn in ServeWorker.run and fired in the worker): an
            # exception kind fails the attempt transiently (and gets it
            # retried); a crash kind kills this whole service process.
            _inject.fire("serve.execute", job=job.id, study=job.spec.study)
        spec = job.spec
        run = run_study(spec.study, engine=spec.engine,
                        profile=spec.profile, store=self.store)
        return run.table, run.from_table_cache, True

    def _worker_process(self) -> ServeWorker:
        """The calling queue thread's worker process handle."""
        proc = getattr(self._local, "proc", None)
        if proc is None:
            with self._procs_lock:
                if self._procs is None:
                    raise ServiceClosedError(
                        "service is shutting down; worker not started"
                    )
                if self._idle:
                    proc = self._idle.pop()
                else:
                    proc = ServeWorker(
                        f"{threading.current_thread().name}-proc")
                    self._procs.append(proc)
            self._local.proc = proc
        return proc

    def _execute(self, job: Job) -> Tuple[ResultTable, bool, bool]:
        spec = job.spec
        if get_study(spec.study).fleet_executed:
            # A table carrying recorded failures (on_error="record")
            # comes back not cacheable: it must not be served to later
            # submitters as the study's answer.
            return self._worker_process().run(job, self.store, spec.timeout_s)
        if spec.timeout_s is None:
            return self._run_study(job)
        outcome: dict = {}

        def _target() -> None:
            try:
                outcome["value"] = self._run_study(job)
            except BaseException as exc:  # delivered to the waiter below
                outcome["error"] = exc

        helper = threading.Thread(
            target=_target, name=f"{job.id}-exec", daemon=True
        )
        helper.start()
        helper.join(spec.timeout_s)
        if helper.is_alive():
            # The execution is abandoned (threads are not preemptible);
            # its eventual result lands in `outcome` and is discarded —
            # in particular it is never published to the table cache.
            if _obs.ENABLED:
                _obs.count("serve.jobs_timed_out")
            raise TimeoutError(
                f"job {job.id} ({spec.study}) exceeded its "
                f"{spec.timeout_s}s timeout"
            )
        if "error" in outcome:
            raise outcome["error"]
        return outcome["value"]
