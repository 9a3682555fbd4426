"""The study service: concurrent ``run_study`` behind a dedup queue.

:class:`StudyService` glues the dedup queue to the execution stack:

* worker processes for fleet-executed studies
  (:mod:`repro.serve.worker`): each queue thread hands such a job to
  its own long-lived ``spawn``-started process, which runs
  :func:`~repro.study.core.run_study` with a
  :class:`~repro.fleet.cache.ModelCache` of its own, so two threads
  simulate on two CPUs instead of taking turns on one interpreter lock;
  direct studies (``fig8``, ``table1``, the ablations, ...) are
  10-50 ms jobs and run on the thread itself;
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

import threading
from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    JobFailedError,
    ServiceClosedError,
)
from repro.faults import inject as _inject
from repro.faults.retry import RetryPolicy
from repro.obs import metrics as _obs
from repro.serve.queue import DONE, FAILED, Job, JobQueue, JobSpec
from repro.serve.worker import WorkerProcess
from repro.study.core import get_study, run_study
from repro.study.table import ResultTable


class StudyService:
    """Concurrent study executor with dedup (see module docstring).

    ``workers`` is the number of queue threads, so it bounds concurrent
    executions and the worker processes (one per thread that has run a
    fleet-executed job; each execution may itself fan out a fleet pool —
    size the two levels together).  ``store`` attaches a durable
    :class:`~repro.store.cache.ResultStore`; ``table_cache``
    bounds the in-memory finished-table LRU (0 disables it, leaving
    only in-flight coalescing and the store's archive).
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        store=None,
        table_cache: int = 64,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if table_cache < 0:
            raise ConfigurationError("table_cache must be >= 0")
        self.store = store
        self._table_cache_size = table_cache
        #: Per-job bounded retry on transient failures (worker-lost,
        #: timeout, injected faults).  Other exceptions — bad studies,
        #: real bugs — still fail the job on the first attempt.
        self.retry = retry if retry is not None else RetryPolicy()
        #: key -> finished ResultTable; touched only under the queue
        #: lock (the lookup/publish callbacks run with it held).
        self._tables: "OrderedDict[str, ResultTable]" = OrderedDict()
        #: Each queue thread's worker process, started on its first
        #: fleet-executed job; ``_procs`` holds them all for close()
        #: (None once closed).
        self._local = threading.local()
        self._procs: Optional[List[WorkerProcess]] = []
        self._procs_lock = threading.Lock()
        self.queue = JobQueue(
            self._execute,
            workers=workers,
            lookup=self._cache_lookup,
            publish=self._cache_publish,
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

    # -- queue callbacks (run under the queue lock) ---------------------------

    def _cache_lookup(self, key: str) -> Optional[ResultTable]:
        table = self._tables.get(key)
        if table is not None:
            self._tables.move_to_end(key)
        return table

    def _cache_publish(self, key: str, table: ResultTable) -> None:
        if self._table_cache_size == 0:
            return
        self._tables[key] = table
        self._tables.move_to_end(key)
        while len(self._tables) > self._table_cache_size:
            self._tables.popitem(last=False)

    # -- execution (worker threads) -------------------------------------------

    def _run_study(self, job: Job) -> Tuple[ResultTable, bool, bool]:
        """A direct study, run here on the calling thread."""
        if _inject.ENABLED:
            # The serve.execute fault site (for a worker-process job it
            # is drawn in WorkerProcess.run and fired in the worker): an
            # exception kind fails the attempt transiently (and gets it
            # retried); a crash kind kills this whole service process.
            _inject.fire("serve.execute", job=job.id, study=job.spec.study)
        spec = job.spec
        run = run_study(spec.study, engine=spec.engine,
                        profile=spec.profile, store=self.store)
        return run.table, run.from_table_cache, True

    def _worker_process(self) -> WorkerProcess:
        """The calling queue thread's worker process handle."""
        proc = getattr(self._local, "proc", None)
        if proc is None:
            proc = WorkerProcess(f"{threading.current_thread().name}-proc")
            with self._procs_lock:
                if self._procs is None:
                    raise ServiceClosedError(
                        "service is shutting down; worker not started"
                    )
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
