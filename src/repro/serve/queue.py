"""Job specs, job records, and the deduplicating FIFO queue.

A :class:`JobSpec` is the frozen request shape of the service: one
:func:`~repro.study.core.run_study` call (study, engine, profile,
execution options) validated *at submit time* through
:func:`~repro.study.core.check_study_options`, so a bad request fails
the submission synchronously instead of occupying a worker.

:class:`JobQueue` runs specs through a bounded pool of worker threads
in FIFO order, with **in-flight dedup**: a submission whose content
address (:func:`~repro.store.cache.study_table_key` over study +
profile + engine + code version — the same key the durable store
archives finished tables under) matches a queued or running job
*coalesces* onto that execution.  Both submitters get their own
:class:`Job` record and job id, but exactly one ``run_study`` happens,
and both jobs complete with the *same* table object — bit-identical by
construction, not by luck.  A completed-table cache (supplied by the
service as ``lookup``/``publish`` callbacks) extends the same
guarantee past completion: resubmitting a finished spec is a hit, not
a rerun.

Counting contract: every ``serve.*`` counter is incremented under the
queue lock, so — unlike the lock-free cache hit counters elsewhere —
they are *exact*, and tests assert them exactly:

    ``dedup_hits == submissions - distinct executions``

regardless of thread timing, because a submission either starts a new
execution or is a dedup hit (in-flight coalesce or completed-cache
hit), never both, decided atomically under the lock.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    JobEvictedError,
    ServiceClosedError,
)
from repro.faults.retry import RetryPolicy, is_transient
from repro.obs import metrics as _obs
from repro.study.core import Profile, check_study_options

#: Job lifecycle states (see :class:`Job`).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
#: States a job can never leave.
TERMINAL = (DONE, FAILED, CANCELLED)

#: Finished (terminal) job records a queue keeps; past this it evicts
#: the one that finished first, and its id then raises
#: :class:`~repro.errors.JobEvictedError`.  A finished record holds its
#: table, so this is what bounds a long-lived service's memory.
MAX_FINISHED_JOBS = 1024


@dataclass(frozen=True)
class JobSpec:
    """One requested ``run_study`` call, validated on construction.

    ``timeout_s`` bounds the execution wall clock (``None`` = no bound);
    a job that exceeds it fails with a captured timeout traceback.  The
    spec is hashable/frozen so it can travel through HTTP JSON and back
    without losing identity.
    """

    study: str
    engine: str = "reference"
    workers: Optional[int] = None
    parallel: bool = True
    profile: Profile = field(default_factory=Profile)
    on_error: str = "raise"
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive (or None)")
        check_study_options(
            self.study, engine=self.engine, workers=self.workers,
            parallel=self.parallel, profile=self.profile,
            on_error=self.on_error,
        )

    def dedup_key(self) -> str:
        """Content address of this spec's finished table.

        Exactly :func:`~repro.store.cache.study_table_key`: the key the
        durable store archives the table under, so in-flight dedup, the
        service's memory cache, and the on-disk archive all agree on
        what "the same job" means.  Execution options (``workers``,
        ``parallel``, ``timeout_s``, ``on_error``) are excluded — they
        cannot change a single output bit (the fleet determinism
        contract), so two submissions differing only there still share
        one execution.
        """
        from repro.store.cache import study_table_key

        return study_table_key(self.study, self.profile, self.engine)

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["profile"] = {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in payload["profile"].items()
        }
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        if not isinstance(payload, dict):
            raise ConfigurationError("job spec must be a JSON object")
        unknown = set(payload) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigurationError(
                f"unknown job spec field(s): {', '.join(sorted(unknown))}"
            )
        if "study" not in payload:
            raise ConfigurationError("job spec needs a 'study'")
        kwargs = dict(payload)
        prof = kwargs.pop("profile", None) or {}
        if not isinstance(prof, dict):
            raise ConfigurationError("profile must be a JSON object")
        prof_unknown = set(prof) - {f.name for f in dataclasses.fields(Profile)}
        if prof_unknown:
            raise ConfigurationError(
                f"unknown profile field(s): {', '.join(sorted(prof_unknown))}"
            )
        try:
            for name in ("tasks", "corpus"):
                if prof.get(name) is not None:
                    prof[name] = tuple(prof[name])
            kwargs["profile"] = Profile(**prof)
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigurationError(f"bad job spec: {exc}")


class Job:
    """One submission's view of its execution (see module docstring).

    State machine::

        queued ──> running ──> done
           │           │
           │           ├─────> failed     (exception or timeout,
           │           │                   traceback captured)
           └─────────────────> cancelled  (queued jobs only)

    A *coalesced* job (``coalesced_into`` set) never enters ``running``
    itself — it completes when its primary's execution does.
    ``from_cache`` marks completions that executed nothing: a
    completed-table cache hit, an in-flight coalesce, or a ``run_study``
    short-circuit out of the durable store's archive.
    """

    def __init__(self, job_id: str, spec: JobSpec, key: str) -> None:
        self.id = job_id
        self.spec = spec
        self.key = key
        self.state = QUEUED
        self.table = None  # ResultTable once done
        self.error: Optional[str] = None
        self.from_cache = False
        self.coalesced_into: Optional[str] = None
        self.created_s = time.time()
        self.started_s: Optional[float] = None
        self.finished_s: Optional[float] = None
        #: Failed execution attempts re-queued by the retry policy
        #: (primary jobs only; attached jobs ride their primary's).
        self.attempts = 0
        #: Jobs coalesced onto this one (primary jobs only).
        self.attached: List["Job"] = []
        self._done = threading.Event()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._done.wait(timeout)

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL

    def to_dict(self) -> dict:
        """JSON-shaped summary (the HTTP API's job resource)."""
        return {
            "id": self.id,
            "study": self.spec.study,
            "engine": self.spec.engine,
            "key": self.key,
            "state": self.state,
            "error": self.error,
            "dedup": bool(self.from_cache or self.coalesced_into),
            "from_cache": self.from_cache,
            "coalesced_into": self.coalesced_into,
            "attempts": self.attempts,
            "created_s": self.created_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
        }


class JobQueue:
    """Bounded-worker FIFO with in-flight dedup (see module docstring).

    ``executor(job) -> (table, from_cache, cacheable)`` runs one job to
    completion (outside the queue lock); ``lookup(key)``/``publish(key,
    table)`` are the completed-table cache callbacks, always invoked
    *under* the queue lock so the hit/coalesce/execute decision is
    atomic and the publish-then-detach ordering leaves no window where
    a duplicate could slip past both the cache and the in-flight table.
    """

    def __init__(
        self,
        executor: Callable[[Job], Tuple[object, bool, bool]],
        *,
        workers: int = 2,
        lookup: Optional[Callable[[str], object]] = None,
        publish: Optional[Callable[[str, object], None]] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self._executor = executor
        self._lookup = lookup
        self._publish = publish
        # Per-job bounded retry on transient failures (worker-lost,
        # timeout, injected faults — see repro.faults.retry.is_transient).
        # None disables retries entirely.
        self._retry = retry
        # Plain (not fork-safe) lock: fleet pool children never touch
        # the queue, so fork inheritance is moot here.
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queue: Deque[Job] = deque()
        self._inflight: Dict[str, Job] = {}
        self._jobs: Dict[str, Job] = {}
        #: Ids of retained terminal jobs, in the order they finished.
        self._finished: Deque[str] = deque()
        self._closed = False
        self._seq = 0
        # Exact counters (every increment happens under the lock).
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.dedup_hits = 0
        self.executions = 0
        self.retried = 0
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"serve-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()

    # -- submission / inspection ---------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Enqueue one spec; returns immediately with this caller's job.

        The returned job may already be ``done`` (completed-table cache
        hit) or coalesced onto an in-flight execution — both count as
        dedup hits.  Raises :class:`~repro.errors.ServiceClosedError`
        once :meth:`close` has begun.
        """
        key = spec.dedup_key()
        with self._cond:
            if self._closed:
                raise ServiceClosedError(
                    "service is shutting down; job not accepted"
                )
            self._seq += 1
            job = Job(f"job-{self._seq:06d}", spec, key)
            self._jobs[job.id] = job
            self.submitted += 1
            if _obs.ENABLED:
                _obs.count("serve.jobs_submitted")
            cached = self._lookup(key) if self._lookup is not None else None
            if cached is not None:
                job.table = cached
                job.from_cache = True
                self._finish(job, DONE)
                self.dedup_hits += 1
                if _obs.ENABLED:
                    _obs.count("serve.dedup_hits")
                return job
            primary = self._inflight.get(key)
            if primary is not None:
                job.coalesced_into = primary.id
                primary.attached.append(job)
                self.dedup_hits += 1
                if _obs.ENABLED:
                    _obs.count("serve.dedup_hits")
                return job
            self._inflight[key] = job
            self._queue.append(job)
            self._cond.notify()
            return job

    def job(self, job_id: str) -> Job:
        """The job record for ``job_id``.

        Raises :class:`~repro.errors.JobEvictedError` for an id this
        queue issued but no longer keeps (see :data:`MAX_FINISHED_JOBS`),
        :class:`~repro.errors.ConfigurationError` for any other unknown id.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            issued = self._seq
        if job is not None:
            return job
        seq = job_id.partition("job-")[2]
        if seq.isdigit() and 0 < int(seq) <= issued \
                and job_id == f"job-{int(seq):06d}":
            raise JobEvictedError(
                f"job {job_id} finished and was evicted (this service "
                f"keeps the last {MAX_FINISHED_JOBS} finished jobs)"
            )
        raise ConfigurationError(f"unknown job {job_id!r}")

    def jobs(self) -> List[Job]:
        """Every job still kept, in submission order."""
        with self._lock:
            return list(self._jobs.values())

    def counters(self) -> dict:
        """Exact lifecycle counters (one consistent snapshot)."""
        with self._lock:
            return {
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "dedup_hits": self.dedup_hits,
                "executions": self.executions,
                "retried": self.retried,
                "queued": len(self._queue),
                "inflight": len(self._inflight),
            }

    def workers_alive(self) -> int:
        """Worker threads currently alive (all of them, in health)."""
        return sum(1 for t in self._threads if t.is_alive())

    @property
    def worker_count(self) -> int:
        return len(self._threads)

    # -- cancellation / shutdown ---------------------------------------------

    def cancel(self, job_id: str) -> bool:
        """Cancel one submission if it has not started executing.

        Only ``queued`` (or coalesced-but-pending) jobs can be
        cancelled; a cancelled job never runs *for this submitter* —
        if other submissions coalesced onto the same execution, the
        execution still happens for them.  Returns True when the job
        was cancelled, False when it was already running or finished.
        """
        job = self.job(job_id)
        with self._cond:
            if job.state != QUEUED:
                return False
            self._finish(job, CANCELLED)
            # A cancelled primary stays in the deque; the worker skips
            # the execution iff every coalesced submission is cancelled
            # too (checked at pop time).
            return True

    def close(
        self, *, drain: bool = True, timeout: Optional[float] = None
    ) -> None:
        """Stop accepting jobs, then stop the workers.

        ``drain=True`` (the default) waits for every queued and running
        job to finish first; ``drain=False`` cancels everything still
        queued (running jobs always finish — executions are not
        preemptible).  Idempotent.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._closed = True
            if not drain:
                for job in list(self._queue):
                    if job.state == QUEUED:
                        self._finish(job, CANCELLED)
            # Wake every worker: cancelled entries still sit in the
            # deque until a worker pops (and drops) them, and the wait
            # loop below needs that drain to make progress.
            self._cond.notify_all()
            while self._queue or self._inflight:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                self._cond.wait(remaining)
            self._cond.notify_all()
        for t in self._threads:
            t.join(timeout=timeout)

    # -- worker side ----------------------------------------------------------

    def _finish(self, job: Job, state: str) -> None:
        # Caller holds the lock.
        job.state = state
        job.finished_s = time.time()
        if state == DONE:
            self.completed += 1
            if _obs.ENABLED:
                _obs.count("serve.jobs_completed")
        elif state == FAILED:
            self.failed += 1
            if _obs.ENABLED:
                _obs.count("serve.jobs_failed")
        elif state == CANCELLED:
            self.cancelled += 1
            if _obs.ENABLED:
                _obs.count("serve.jobs_cancelled")
        job._done.set()
        self._finished.append(job.id)
        while len(self._finished) > MAX_FINISHED_JOBS:
            self._jobs.pop(self._finished.popleft(), None)

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._queue:
                    if self._closed:
                        return
                    self._cond.wait()
                job = self._queue.popleft()
                live = [
                    j for j in (job, *job.attached) if j.state != CANCELLED
                ]
                if not live:
                    # Every submission for this key was cancelled
                    # before a worker got to it: drop the execution.
                    self._inflight.pop(job.key, None)
                    self._cond.notify_all()
                    continue
                for j in live:
                    j.state = RUNNING
                    j.started_s = time.time()
                if job.attempts == 0:
                    # Retried attempts are not new executions: the
                    # counting contract (dedup_hits == submissions -
                    # distinct executions) counts specs, not tries.
                    self.executions += 1
                    if _obs.ENABLED:
                        _obs.count("serve.executions")
                        _obs.observe_ns(
                            "serve.queue_wait",
                            int((job.started_s - job.created_s) * 1e9),
                        )
            table = None
            error: Optional[str] = None
            exc_obj: Optional[BaseException] = None
            from_cache = False
            cacheable = False
            try:
                with _obs_span("serve.execute", job):
                    table, from_cache, cacheable = self._executor(job)
            except Exception as exc:
                error = traceback.format_exc()
                exc_obj = exc
            if exc_obj is not None and self._retryable(job, exc_obj):
                self._requeue(job)
                continue
            with self._cond:
                # publish-before-detach: a duplicate submitted in this
                # window must find either the in-flight entry or the
                # completed-table cache — never neither.
                if error is None and cacheable and self._publish is not None:
                    self._publish(job.key, table)
                # Coalesces that raced in while the job ran.
                live = [
                    j for j in (job, *job.attached) if j.state != CANCELLED
                ]
                for j in live:
                    if error is None:
                        j.table = table
                        j.from_cache = from_cache or j.coalesced_into is not None
                        self._finish(j, DONE)
                    else:
                        j.error = error
                        self._finish(j, FAILED)
                self._inflight.pop(job.key, None)
                self._cond.notify_all()

    def _retryable(self, job: Job, exc: BaseException) -> bool:
        return (
            self._retry is not None
            and is_transient(exc)
            and job.attempts + 1 < self._retry.max_attempts
        )

    def _requeue(self, job: Job) -> None:
        """Send a transiently failed job around again (worker thread).

        The job (and every attached duplicate) goes back to ``queued``
        but *stays in the in-flight table* through the backoff, so
        submissions racing in keep coalescing onto the retrying
        execution — the dedup key never changes and duplicate jobs ride
        the retry to whatever outcome it reaches.
        """
        with self._cond:
            job.attempts += 1
            self.retried += 1
            if _obs.ENABLED:
                _obs.count("serve.jobs_retried")
            for j in (job, *job.attached):
                if j.state == RUNNING:
                    j.state = QUEUED
        # Backoff outside the lock (deterministic, bounded); then hand
        # the job back to the deque for any worker — including this one.
        self._retry.sleep(job.attempts)
        with self._cond:
            self._queue.append(job)
            self._cond.notify()


def _obs_span(name: str, job: Job):
    from repro.obs import spans as _spans

    return _spans.span(name, job=job.id, study=job.spec.study)
