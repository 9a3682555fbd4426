"""Child processes: the one channel under every worker process.

Three callers start child processes: the fleet pool
(:mod:`repro.fleet.runner`), Table II's training worker
(:mod:`repro.study.studies`) and the study service's worker
(:mod:`repro.serve.worker`).  Each keeps only its own protocol; this
module owns what they share, so each rule below holds once for all:

* **Start.**  :class:`Child` starts ``target(conn, *args)`` by a named
  method (``"fork"``, ``"spawn"``, or ``None`` for the platform
  default) through :mod:`multiprocessing`, with one duplex pipe whose
  other end only the child holds: the parent closes its copy right after
  ``start()``.  The child first resets the metrics and spans it
  inherited, sets :mod:`repro.obs` on or off as the parent had it, and
  installs the parent's active fault plan (or uninstalls any).
* **Daemon or not.**  A daemon child (the pool's, Table II's) is
  terminated by :mod:`multiprocessing` at interpreter exit and may not
  start children.  A non-daemon child (the serve worker, which forks
  fleet pools) runs in its own process group, so a stop reaches what it
  forked, and is stopped at interpreter exit (:meth:`Child.stop` with
  no wait) before :mod:`multiprocessing` would join it.
* **One loss rule: EOF.**  :meth:`Child.recv` raises
  :class:`~repro.errors.WorkerLostError` on EOF or a broken pipe.  EOF is
  reliable because a forked child first closes every channel end it
  inherited: its siblings' parent ends and its own parent's pipe to the
  grandparent.  So a child's death reaches its parent as EOF even while
  a pool the child forked lives on.
* **One stop.**  :meth:`Child.stop` sends the ``None`` sentinel, joins
  for ``wait_s``, then SIGTERMs (the process group, for a child that has
  one) and SIGKILLs, each step with a bounded join.  It always reaps the
  child and closes the pipe; a child that obeys the sentinel exits
  normally (its ``multiprocessing`` finalizers run).
* **One reply envelope.**  A child answers a request with
  :func:`reply`: a :class:`Reply` holding the value, or the exception
  (made portable) with the child's traceback, plus the child's metrics
  delta when obs is on.  :meth:`Reply.unwrap` absorbs the delta and
  re-raises the exception ``from`` the remote traceback.
* **One merge rule.**  Each delta is absorbed when it arrives
  (:func:`repro.obs.metrics.absorb`): counters and durations add, a
  gauge takes the last value.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
import traceback
from multiprocessing import connection, get_context, util
from typing import (
    Any, Callable, Iterator, List, NamedTuple, Optional, Sequence,
)

from repro.errors import ReproError, WorkerLostError
from repro.faults import inject as _inject
from repro.obs import metrics as _obs
from repro.obs import spans as _spans

#: Join budget of each forced step of :meth:`Child.stop` (SIGTERM, then
#: SIGKILL).
FORCE_S = 5.0

#: Every channel end this process holds, its own pipe to its parent
#: included; a forked child closes its copies of them.
_ENDS: set = set()


class RemoteTraceback(Exception):
    """Carries a child's formatted traceback as an exception's cause."""


def portable(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ReproError(f"{type(exc).__name__}: {exc}")


class Reply(NamedTuple):
    """A child's answer: ``value``, or ``error`` as ``(exception,
    traceback text)``; ``delta`` is the child's metrics since its last
    reply, or ``None`` when obs is off."""

    value: Any
    error: Optional[tuple]
    delta: Optional[dict]

    def unwrap(self) -> Any:
        """Absorb the delta; return the value or raise the error."""
        if self.delta is not None:
            _obs.absorb(self.delta)
        if self.error is not None:
            exc, text = self.error
            raise exc from RemoteTraceback(text)
        return self.value


def reply(fn: Callable, *args) -> Reply:
    """``fn(*args)`` as a :class:`Reply` (called in the child).

    With obs on, the reply takes a snapshot and the child resets its
    metrics and spans, so each reply carries a delta.
    """
    try:
        value, error = fn(*args), None
    except Exception as exc:
        value, error = None, (portable(exc), traceback.format_exc())
    delta = None
    if _obs.ENABLED:
        delta = _obs.snapshot()
        _obs.reset_metrics()
        _spans.clear()
    return Reply(value, error, delta)


def requests(conn) -> Iterator[Any]:
    """The parent's messages (read in the child), until its ``None``
    sentinel or EOF."""
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        if msg is None:
            return
        yield msg


def _main(conn, target, args, plan, obs_on, group) -> None:
    """A child's entry point: set up, then ``target(conn, *args)``."""
    for end in list(_ENDS):
        if end is not conn:  # a fork's copies (a spawned child has none)
            end.close()
    _ENDS.clear()
    _ENDS.add(conn)
    if group:
        os.setpgrp()
    _obs.reset_metrics()
    _spans.clear()
    if obs_on:
        _obs.enable()
    else:
        _obs.disable()
    if plan is not None:
        _inject.install(plan)
    else:
        _inject.uninstall()
    target(conn, *args)


class Child:
    """The parent's handle on one child process (see the module
    docstring); :meth:`start` it, then talk over :meth:`send` and
    :meth:`recv`, and end it with :meth:`stop`."""

    def __init__(self, target: Callable, *args, method: Optional[str] = None,
                 name: Optional[str] = None, daemon: bool = True) -> None:
        ctx = get_context(method)
        self.name = name
        self.conn, end = ctx.Pipe()
        _ENDS.update((self.conn, end))
        self._end = end
        self._daemon = daemon
        self._group = not daemon and hasattr(os, "setpgrp")
        self._finalizer = None
        self.proc = ctx.Process(
            target=_main, name=name, daemon=daemon,
            args=(end, target, args, _inject.active_plan(), _obs.ENABLED,
                  self._group),
        )

    def start(self) -> "Child":
        """Start the child; if that raises, :meth:`recv` sees it lost."""
        try:
            self.proc.start()
        finally:
            _ENDS.discard(self._end)
            self._end.close()
        if not self._daemon:
            self._finalizer = util.Finalize(self, self.stop, args=(0.0,),
                                            exitpriority=10)
        return self

    def send(self, msg: Any) -> None:
        """Send ``msg`` to the child; a broken pipe means it is lost."""
        try:
            self.conn.send(msg)
        except OSError as exc:
            raise WorkerLostError(self.name, "child process lost") from exc

    def recv(self, deadline: Optional[float] = None) -> Any:
        """The child's next message, or ``None`` once ``deadline`` (a
        :func:`time.monotonic` value) passes."""
        try:
            if deadline is not None and not self.conn.poll(
                    max(deadline - time.monotonic(), 0.0)):
                return None
            return self.conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerLostError(self.name, "child process lost") from exc

    def stop(self, wait_s: float) -> None:
        """Stop and reap the child within bounded time; close the pipe.
        A stopped child's second stop does nothing."""
        if self.conn.closed:
            return
        if self._finalizer is not None:
            self._finalizer.cancel()
        proc = self.proc
        if proc.pid is not None:
            try:
                self.conn.send(None)
            except OSError:
                pass
            if wait_s > 0:
                proc.join(wait_s)
            # A group is signalled even if its leader died, so nothing
            # it forked outlives it.
            if proc.exitcode != 0:
                self._signal(signal.SIGTERM)
                proc.join(FORCE_S)
            if proc.exitcode is None:
                self._signal(signal.SIGKILL)
                proc.join(FORCE_S)
        _ENDS.discard(self.conn)
        self.conn.close()

    def _signal(self, signum: int) -> None:
        if self._group:
            try:
                os.killpg(self.proc.pid, signum)
                return
            except OSError:  # no group yet, or none left
                pass
        if signum == signal.SIGKILL:
            self.proc.kill()
        else:
            self.proc.terminate()


def wait(children: Sequence[Child]) -> List[Child]:
    """Block until a child has a message or is lost; those children."""
    ready = connection.wait([c.conn for c in children])
    return [c for c in children if c.conn in ready]


def stop_all(children: Sequence[Child], wait_s: float) -> None:
    """:meth:`Child.stop` every child, with one ``wait_s`` for all: the
    sentinels go out first, so the children exit side by side."""
    for child in children:
        try:
            child.conn.send(None)
        except OSError:
            pass
    deadline = time.monotonic() + wait_s
    for child in children:
        child.stop(max(deadline - time.monotonic(), 0.0))
