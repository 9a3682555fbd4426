"""The injection runtime: install a plan, fire at named sites.

Mirrors the :mod:`repro.obs.metrics` zero-overhead contract exactly:
every instrumented call site is gated on the module attribute
``ENABLED``, so with no plan installed (the production default) the
whole subsystem costs one attribute load + branch per site — measured
and bounded analytically in ``benchmarks/bench_faults_overhead.py``.

Installation has two doors:

* :func:`install` / :func:`uninstall` for in-process use (tests, the
  CLI's ``--faults`` flag);
* the ``REPRO_FAULTS`` environment variable, read once at import, so a
  *subprocess* chaos test (CLI smoke, forked pool workers under a spawn
  start method) inherits the plan without any code path knowing about
  it.  Forked fleet workers additionally get the plan re-installed via
  the worker initializer, which resets per-rule call counts — each
  worker's fire pattern is deterministic in its own call sequence.

Fired faults are observable: each fire bumps ``faults.injected`` (and a
per-site variant) when :mod:`repro.obs` is enabled; the retry helpers in
:mod:`repro.faults.retry` bump ``faults.recovered`` when an operation
survives one.
"""

from __future__ import annotations

import os
import random
import signal
import sys
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.faults.plan import FaultPlan, FaultRule
from repro.obs import metrics as _obs

#: The import-time installation door (a JSON :meth:`FaultPlan.to_json`).
ENV_VAR = "REPRO_FAULTS"

#: The gate.  Call sites check this before anything else; it is True
#: only while a non-empty plan is installed.
ENABLED = False

_PLAN: Optional[FaultPlan] = None
_CALLS: Dict[int, int] = {}  # rule index -> calls seen at its site
_FIRED: Dict[int, int] = {}  # rule index -> times fired
_RNGS: Dict[int, random.Random] = {}  # rule index -> Bernoulli stream


class FaultInjected(OSError):
    """The exception an ``exception``/``torn_write`` rule raises.

    An :class:`OSError` subclass (carrying the rule's ``errno_code``,
    ENOSPC by default) so the injected failure exercises the *same*
    ``except OSError`` recovery paths a real disk fault would.  The
    subclass keeps it distinguishable: retry classifiers treat it as
    transient, and nothing can confuse it with a genuine bug.
    """

    def __init__(self, site: str, errno_code: int, message: str) -> None:
        super().__init__(errno_code, message)
        self.site = site

    def __reduce__(self):
        # Survive a pickle round trip (a serve worker's pipe) as itself,
        # so retry classification still sees a transient fault.
        return type(self), (self.site, self.errno, self.strerror)


def install(plan: FaultPlan) -> None:
    """Arm ``plan``, resetting all per-rule trigger state."""
    global ENABLED, _PLAN
    _PLAN = plan
    _CALLS.clear()
    _FIRED.clear()
    _RNGS.clear()
    for i, rule in enumerate(plan.rules):
        _RNGS[i] = random.Random(rule.seed)
    ENABLED = bool(plan.rules)


def uninstall() -> None:
    """Disarm injection entirely (the production state)."""
    global ENABLED, _PLAN
    ENABLED = False
    _PLAN = None
    _CALLS.clear()
    _FIRED.clear()
    _RNGS.clear()


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, or None when injection is disarmed."""
    return _PLAN if ENABLED else None


def stats() -> dict:
    """Per-rule trigger state: ``{"calls": {...}, "fired": {...}}``."""
    return {"calls": dict(_CALLS), "fired": dict(_FIRED)}


def fire(site: str, *, path: Optional[str] = None, **_ctx: object) -> None:
    """Evaluate every installed rule for ``site``; trigger matches.

    Call sites gate this on ``ENABLED`` themselves (the zero-overhead
    contract), but firing re-checks so a race with :func:`uninstall`
    degrades to a no-op.  ``path`` gives ``torn_write`` rules a file to
    truncate; other context kwargs are accepted and ignored so sites
    can annotate freely.
    """
    for rule, ordinal in _hits(site):
        _trigger(rule, site, path, ordinal)


def draw(site: str) -> List[Tuple[FaultRule, int]]:
    """Evaluate ``site``'s rules like :func:`fire`, without triggering.

    Returns each ``(rule, ordinal)`` that fires, for :func:`trigger` to
    act on elsewhere.  The study service draws ``serve.execute`` in its
    own process and triggers it in the worker process that runs the
    job, so the per-rule counts live in the process that survives a
    ``crash``.
    """
    return list(_hits(site))


def trigger(rule: FaultRule, site: str, ordinal: int) -> None:
    """Act out one rule that :func:`draw` returned (see there)."""
    _trigger(rule, site, None, ordinal)


def _hits(site: str) -> Iterator[Tuple[FaultRule, int]]:
    """Count ``site``'s rules in plan order, yielding those that fire.

    A generator, so :func:`fire` counts a later rule only once the
    earlier ones have triggered without raising.
    """
    plan = _PLAN
    if not ENABLED or plan is None:
        return
    for i, rule in enumerate(plan.rules):
        if rule.site != site:
            continue
        _CALLS[i] = n = _CALLS.get(i, 0) + 1
        if rule.times is not None and _FIRED.get(i, 0) >= rule.times:
            continue
        if rule.nth is not None:
            hit = n == rule.nth
        else:
            hit = _RNGS[i].random() < rule.probability
        if not hit:
            continue
        _FIRED[i] = _FIRED.get(i, 0) + 1
        if _obs.ENABLED:
            _obs.count("faults.injected")
            _obs.count(f"faults.injected.{site}")
        yield rule, _FIRED[i]


def _trigger(rule, site: str, path: Optional[str], ordinal: int) -> None:
    if rule.kind == "delay":
        time.sleep(rule.delay_s)
        return
    if rule.kind == "crash":
        # A real kill -9: no atexit, no finally, no flushed buffers
        # beyond what we flush here so the harness can read output
        # emitted before the crash.
        sys.stdout.flush()
        sys.stderr.flush()
        if hasattr(signal, "SIGKILL"):
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(137)  # pragma: no cover - non-posix fallback
    if rule.kind == "torn_write" and path is not None:
        # Tear the in-progress file in half, then fail the operation —
        # the shape a mid-write power loss leaves behind.
        try:
            size = os.path.getsize(path)
            with open(path, "r+b") as fh:
                fh.truncate(size // 2)
        except OSError:
            pass
    raise FaultInjected(
        site, rule.errno_code,
        f"injected {rule.kind} at {site} (fire #{ordinal})",
    )


def _install_from_env() -> None:
    payload = os.environ.get(ENV_VAR)
    if payload:
        # Malformed plans fail loudly: a chaos run that silently tested
        # nothing is worse than an import error.
        install(FaultPlan.from_json(payload))


_install_from_env()
