"""Bounded, deterministic retry: the one policy every layer shares.

:class:`RetryPolicy` is a frozen spec — attempt budget, exponential
backoff base/cap, and a jitter *seed* — so the delay before attempt N
is a pure function of the policy, reproducible run to run.  The fleet
supervisor uses it for worker respawns, :class:`~repro.store.shards.
ShardStore` for transient flush/reopen ``OSError``\\ s, the serve queue
for per-job retries, and :class:`~repro.serve.client.ServeClient` for
idempotent GETs — one recovery vocabulary across the stack.

:func:`is_transient` is the shared classifier: retry what a second
attempt can plausibly fix (timeouts, lost workers, connection drops,
injected faults), never what it cannot (a ``FileNotFoundError`` is a
bug, not weather).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Tuple, Type, TypeVar

from repro.errors import ConfigurationError
from repro.faults.inject import FaultInjected
from repro.obs import metrics as _obs

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget + deterministic jittered exponential backoff.

    ``max_attempts`` counts *total* tries (1 = no retries).  The delay
    before retry attempt N (1-based retry index) is
    ``min(backoff_base_s * 2**(N-1), backoff_cap_s)`` scaled by a
    jitter factor in [0.5, 1.0) drawn from ``jitter_seed`` and N — the
    standard thundering-herd spreader, made reproducible.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.backoff_base_s < 0:
            raise ConfigurationError("backoff_base_s must be >= 0")
        if self.backoff_cap_s < self.backoff_base_s:
            raise ConfigurationError("backoff_cap_s must be >= backoff_base_s")

    def backoff_s(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based), deterministic."""
        base = min(self.backoff_base_s * (2 ** (attempt - 1)),
                   self.backoff_cap_s)
        jitter = random.Random((self.jitter_seed << 16) ^ attempt).random()
        return base * (0.5 + 0.5 * jitter)

    def sleep(self, attempt: int) -> None:
        delay = self.backoff_s(attempt)
        if delay > 0:
            time.sleep(delay)


def is_transient(exc: BaseException) -> bool:
    """Would a retry plausibly succeed?  (See module docstring.)"""
    from repro.errors import WorkerLostError

    return isinstance(
        exc, (TimeoutError, ConnectionError, WorkerLostError, FaultInjected)
    )


def call_with_retry(
    fn: Callable[[], T],
    *,
    policy: RetryPolicy,
    retry_on: Tuple[Type[BaseException], ...] = (OSError,),
    site: str = "",
) -> T:
    """Run ``fn`` under ``policy``, retrying ``retry_on`` failures.

    The final attempt's exception propagates unchanged.  A success that
    follows at least one failure bumps ``faults.recovered`` (plus a
    per-``site`` variant), which is how chaos tests assert that an
    injected fault was actually *survived* rather than never hit.
    """
    failures = 0
    for attempt in range(1, policy.max_attempts + 1):
        try:
            value = fn()
        except retry_on:
            failures += 1
            if _obs.ENABLED:
                _obs.count("retry.failures")
                if site:
                    _obs.count(f"retry.failures.{site}")
            if attempt == policy.max_attempts:
                raise
            policy.sleep(attempt)
        else:
            if failures and _obs.ENABLED:
                _obs.count("faults.recovered")
                if site:
                    _obs.count(f"faults.recovered.{site}")
            return value
    raise AssertionError("unreachable")  # pragma: no cover
