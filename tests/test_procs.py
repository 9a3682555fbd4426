"""Conformance suite for :mod:`repro.procs`, the one child-process channel
under the fleet pool, Table II's worker and the serve worker.

Every case runs under both start methods and uses one child (two where
a grandchild is the point)."""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro import obs, procs
from repro.errors import ConfigurationError, ReproError, WorkerLostError

METHODS = [m for m in ("fork", "spawn")
           if m in multiprocessing.get_all_start_methods()]


@pytest.fixture(autouse=True)
def _clean():
    obs.reset()
    obs.disable()
    yield
    obs.reset()
    obs.disable()
    assert multiprocessing.active_children() == []


def _echo(conn):
    for msg in procs.requests(conn):
        conn.send(procs.reply(lambda m=msg: m))


def _sleeper(conn):
    for _ in procs.requests(conn):
        pass


def _forks_grandchild(conn):
    """Starts a forked grandchild, reports its pid, then idles."""
    grandchild = procs.Child(_sleeper, method="fork").start()
    conn.send(grandchild.proc.pid)
    for _ in procs.requests(conn):
        pass


def _stubborn(conn):
    """Ignores SIGTERM and its sentinel."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    conn.send("ready")
    while True:
        time.sleep(1)


class _Unpicklable(Exception):
    def __init__(self):
        super().__init__("no pickle")
        self.lock = threading.Lock()


def _raise(kind):
    if kind == "config":
        raise ConfigurationError("boom")
    raise _Unpicklable()


def _raiser(conn):
    for kind in procs.requests(conn):
        conn.send(procs.reply(_raise, kind))


def _record(n):
    obs.count("c", n)
    obs.gauge("g", n)
    obs.observe_ns("d", 1000 * n)


def _recorder(conn):
    for n in procs.requests(conn):
        conn.send(procs.reply(_record, n))


def _wait_gone(pgid):
    deadline = time.monotonic() + 10
    with pytest.raises(ProcessLookupError):
        while time.monotonic() < deadline:
            os.killpg(pgid, 0)
            time.sleep(0.05)


@pytest.mark.parametrize("method", METHODS)
def test_graceful_stop_lets_the_child_return(method):
    child = procs.Child(_echo, method=method).start()
    child.send("hello")
    assert child.recv().unwrap() == "hello"
    child.stop(5.0)
    assert child.proc.exitcode == 0
    child.stop(5.0)  # a second stop does nothing


@pytest.mark.parametrize("method", METHODS)
def test_sigkill_is_worker_lost(method):
    child = procs.Child(_echo, method=method, name="victim").start()
    child.send(1)
    assert child.recv().unwrap() == 1
    os.kill(child.proc.pid, signal.SIGKILL)
    with pytest.raises(WorkerLostError, match="victim"):
        child.recv(time.monotonic() + 10)
    child.stop(0.0)
    assert child.proc.exitcode == -signal.SIGKILL


@pytest.mark.parametrize("method", METHODS)
def test_sigkill_is_worker_lost_while_a_grandchild_lives(method):
    """The forked grandchild closed its copy of the child's pipe, so the
    child's death is EOF here although the grandchild outlives it."""
    child = procs.Child(_forks_grandchild, method=method,
                        daemon=False).start()
    grandchild = child.recv(time.monotonic() + 30)
    os.kill(child.proc.pid, signal.SIGKILL)
    try:
        with pytest.raises(WorkerLostError):
            # None here would mean no EOF: the grandchild held the pipe.
            assert child.recv(time.monotonic() + 10) is not None
        os.kill(grandchild, 0)  # it is still alive
    finally:
        child.stop(0.0)  # signals the child's process group
    _wait_gone(child.proc.pid)


@pytest.mark.parametrize("method", METHODS)
def test_exception_keeps_type_message_and_remote_traceback(method):
    child = procs.Child(_raiser, method=method).start()
    try:
        child.send("config")
        with pytest.raises(ConfigurationError, match="^boom$") as info:
            child.recv().unwrap()
        cause = info.value.__cause__
        assert isinstance(cause, procs.RemoteTraceback)
        assert "in _raise" in str(cause)
        child.send("unpicklable")
        with pytest.raises(ReproError,
                           match="^_Unpicklable: no pickle$") as info:
            child.recv().unwrap()
        assert type(info.value) is ReproError
        assert "_Unpicklable" in str(info.value.__cause__)
    finally:
        child.stop(5.0)


@pytest.mark.parametrize("daemon", [True, False], ids=["daemon", "group"])
@pytest.mark.parametrize("method", METHODS)
def test_stop_is_bounded_for_a_child_that_ignores_sigterm(
        method, daemon, monkeypatch):
    monkeypatch.setattr(procs, "FORCE_S", 0.5)
    child = procs.Child(_stubborn, method=method, daemon=daemon).start()
    assert child.recv(time.monotonic() + 30) == "ready"
    assert child.recv(time.monotonic() + 0.05) is None  # the deadline
    t0 = time.monotonic()
    child.stop(0.2)
    # 0.2 s of grace, 0.5 s after SIGTERM, then SIGKILL ends it at once.
    assert time.monotonic() - t0 < 0.2 + 0.5 + 2.0
    assert child.proc.exitcode == -signal.SIGKILL
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("method", METHODS)
def test_deltas_merge_by_the_one_rule(method):
    """Counters and durations add, a gauge takes the last value, and a
    forked child does not ship back what it inherited."""
    obs.enable()
    obs.count("c", 1)
    obs.gauge("g", 7)
    child = procs.Child(_recorder, method=method).start()
    try:
        for n in (2, 3):
            child.send(n)
            child.recv().unwrap()
    finally:
        child.stop(5.0)
    snap = obs.snapshot()
    assert snap["counters"]["c"] == 1 + 2 + 3
    assert snap["gauges"]["g"] == 3.0
    d = snap["durations"]["d"]
    assert (d["count"], d["total_ns"], d["min_ns"], d["max_ns"]) == \
        (2, 5000, 2000, 3000)


def test_a_child_that_cannot_start_is_lost(monkeypatch):
    def refuse():
        raise OSError("cannot start")

    child = procs.Child(_echo)
    monkeypatch.setattr(child.proc, "start", refuse)
    with pytest.raises(OSError, match="cannot start"):
        child.start()
    with pytest.raises(WorkerLostError):
        child.recv()
    child.stop(0.0)  # nothing to stop
