"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause.  The two
simulation-control exceptions, :class:`PowerFailureError` and
:class:`InferenceAborted`, are *not* programming errors: they are the normal
signalling mechanism of the intermittent-execution machine.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A model, device, or runtime was configured inconsistently."""


class ResourceExceededError(ReproError):
    """A model or buffer does not fit the device's SRAM/FRAM budget."""


class QuantizationError(ReproError):
    """Fixed-point conversion failed (bad shape, bad exponent, NaN input)."""


class PowerFailureError(ReproError):
    """The capacitor voltage dropped below the brown-out threshold.

    Raised by the device/harvester while a runtime is executing; caught by
    :class:`repro.sim.machine.IntermittentMachine`, which clears volatile
    state, waits for the capacitor to recharge, and restarts the runtime.
    """

    def __init__(self, message: str = "brown-out: supply voltage below V_off") -> None:
        super().__init__(message)


class InferenceAborted(ReproError):
    """An inference made no forward progress across many power cycles (DNF)."""

    def __init__(self, reboots: int, message: str = "") -> None:
        self.reboots = reboots
        super().__init__(
            message or f"no forward progress after {reboots} power cycles (DNF)"
        )


class ScenarioExecutionError(ReproError):
    """A fleet scenario raised during execution.

    Wraps whatever escaped the worker so the failure names the scenario
    that produced it (a bare worker traceback out of a thousand-cell grid
    is undebuggable).  Raised by :class:`repro.fleet.runner.FleetRunner`
    in ``on_error="raise"`` mode; in ``on_error="record"`` mode the same
    information lands in :attr:`repro.fleet.report.ScenarioResult.error`
    instead.
    """

    def __init__(self, scenario_name: str, error: str) -> None:
        self.scenario_name = scenario_name
        self.error = error
        super().__init__(f"scenario {scenario_name!r} failed: {error}")

    def __reduce__(self):
        # Pickle as itself (a study service's worker pipe carries these),
        # so a lost fleet worker stays a retryable WorkerLostError.
        return type(self), (self.scenario_name, self.error)


class WorkerLostError(ScenarioExecutionError):
    """A fleet worker process died while executing a scenario.

    Raised (``on_error="raise"``) or recorded as an error row with
    ``error_kind="worker_lost"`` (``on_error="record"``) after the
    supervisor's respawn-and-retry budget for that scenario is
    exhausted — a SIGKILL/OOM-killed worker is recoverable weather, not
    a scenario bug, so it gets its own type and its own error kind.
    """


class ServiceClosedError(ReproError):
    """A job was submitted to a study service that is shutting down.

    Raised synchronously by :meth:`repro.serve.service.StudyService.
    submit` once shutdown has begun — jobs accepted before the call keep
    running (or drain, per the shutdown mode), but no new work enters
    the queue.
    """


class QueueFullError(ReproError):
    """A job was refused because the study service's queue is full.

    A service admits at most :data:`repro.serve.queue.MAX_QUEUED_JOBS`
    queued executions; a submission that would add one more raises this
    (a duplicate of a queued or finished job still coalesces).  The HTTP
    API answers it with ``429 Too Many Requests`` and ``Retry-After``.
    """


class JobEvictedError(ConfigurationError):
    """A job id names a finished job whose record was since evicted.

    A study service keeps a bounded number of finished job records
    (:data:`repro.serve.queue.MAX_FINISHED_JOBS`), dropping the oldest
    first; the HTTP API answers such an id with ``410 Gone``.  A
    :class:`ConfigurationError` subclass, so callers that handle an
    unknown job id handle an evicted one too.
    """


class JobFailedError(ReproError):
    """A service job finished in the ``failed`` state.

    Raised when a caller asks for the *result* of a failed job
    (:meth:`repro.serve.service.StudyService.result`, or the HTTP
    client's ``wait``).  Carries the job id and the captured traceback
    text from the execution that failed.
    """

    def __init__(self, job_id: str, error: str) -> None:
        self.job_id = job_id
        self.error = error
        super().__init__(f"job {job_id} failed: {error}")
