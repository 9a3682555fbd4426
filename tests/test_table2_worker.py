"""Table II on two processes: one spawned worker trains all but the first
task, and the table stays byte-equal to training each task on its own."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.study import Profile, run_study
from repro.study import studies

#: The cheapest pair of tasks.
PAIR = ("har", "okg")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _rows(table) -> str:
    """The table's rows as JSON (floats by shortest round-trip repr)."""
    return json.dumps(json.loads(table.to_json())["rows"])


def _run(tasks, *, metrics=False):
    """``run_study("table2")`` at seed 0; with ``metrics``, also the run's
    obs snapshot (obs is reset and switched off again either way)."""
    obs.reset()
    if metrics:
        obs.enable()
    try:
        table = run_study("table2", profile=Profile(tasks=tasks, seed=0)).table
        return table, (obs.snapshot() if metrics else None)
    finally:
        obs.reset()
        obs.disable()


def _spectra_calls(snap) -> int:
    counters = snap["counters"]
    return (counters.get("kernels.spectra.hits", 0)
            + counters.get("kernels.spectra.misses", 0))


class _InlineProcess:
    """Stands in for a spawned ``Process``: ``start()`` runs ``body`` on
    the worker's arguments in this process, then the worker is gone."""

    def __init__(self, body, args):
        self.body = body
        self.args = args
        self.pid = None
        self.calls = []

    def start(self):
        self.calls.append("start")
        self.body(*self.args)
        self.pid = -1

    def terminate(self):
        self.calls.append("terminate")

    def join(self):
        self.calls.append("join")


class _Context:
    """Stands in for the ``spawn`` context: a real pipe, and processes
    that run ``body`` inline (it defaults to the real worker)."""

    def __init__(self, body=None):
        self.body = body or studies._table2_worker
        self.processes = []

    def Pipe(self, duplex=True):
        return multiprocessing.Pipe(duplex)

    def Process(self, *, target, args, name=None, daemon=None):
        assert target is studies._table2_worker and daemon is True
        self.processes.append(_InlineProcess(self.body, args))
        return self.processes[-1]


def _use(monkeypatch, context):
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: context if method == "spawn"
                        else pytest.fail(f"{method} context"))


def _lost(conn, tasks, full, seed, obs_on):
    """A worker that dies before sending anything."""


def _fake_row(task, full, seed):
    return dict(task=task, structure=f"{task}/{full}/{seed}", float_acc=0.5,
                quantized_acc=0.25, paper_acc=0.125, fram_bytes=len(task))


@pytest.fixture(scope="module")
def singles():
    """Each task of ``PAIR`` alone, under obs, with a context lookup that
    fails the test if a worker is ever asked for."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multiprocessing, "get_context",
                   lambda method: pytest.fail("worker started"))
        return [_run((task,), metrics=True) for task in PAIR]


def test_one_task_run_starts_no_worker(singles):
    assert [table.column("task") for table, _ in singles] == [["har"], ["okg"]]


def test_two_task_rows_equal_the_single_task_runs(singles):
    """Through a real spawned worker."""
    table, snap = _run(PAIR, metrics=True)
    assert table.column("task") == list(PAIR)
    single_rows = [json.loads(_rows(t))[0] for t, _ in singles]
    assert _rows(table) == json.dumps(single_rows)
    # Each weight_spectra call is one hit or one miss in whichever process
    # made it, so the merged total is the serial one; the split between
    # hits and misses depends on which process warmed which cache.
    assert _spectra_calls(snap) == sum(_spectra_calls(s) for _, s in singles)
    assert _spectra_calls(snap) > 0
    assert snap["counters"].get("faults.recovered", 0) == 0
    assert multiprocessing.active_children() == []


def test_a_lost_worker_leaves_the_table_unchanged(singles, monkeypatch):
    context = _Context(_lost)
    _use(monkeypatch, context)
    table, snap = _run(PAIR, metrics=True)
    assert _rows(table) == json.dumps([json.loads(_rows(t))[0]
                                       for t, _ in singles])
    assert snap["counters"]["faults.recovered.table2.worker"] == 1
    assert context.processes[0].calls == ["start", "terminate", "join"]


def test_a_worker_lost_midway_keeps_the_rows_it_sent(monkeypatch):
    def sends_one(conn, tasks, full, seed, obs_on):
        studies._table2_worker(conn, tasks[:1], full, seed, obs_on)

    trained_here = []

    def row(task, full, seed):
        trained_here.append(task)
        return _fake_row(task, full, seed)

    _use(monkeypatch, _Context(sends_one))
    monkeypatch.setattr(studies, "_table2_row", row)
    rows = studies._table2_rows(("mnist", "har", "okg"), False, 3)
    assert rows == [_fake_row(t, False, 3) for t in ("mnist", "har", "okg")]
    # har went to the inline worker; okg was recovered here.
    assert trained_here == ["har", "mnist", "okg"]


def test_a_worker_that_cannot_start_trains_here(monkeypatch):
    def cannot_start(*args):
        raise OSError("cannot start")

    context = _Context(cannot_start)
    _use(monkeypatch, context)
    monkeypatch.setattr(studies, "_table2_row", _fake_row)
    rows = studies._table2_rows(("mnist", "har", "okg"), False, 3)
    assert rows == [_fake_row(t, False, 3) for t in ("mnist", "har", "okg")]
    # Never started, so nothing to terminate.
    assert context.processes[0].calls == ["start"]


def test_rows_come_back_in_task_order(monkeypatch):
    sent_to_worker = []

    def body(conn, tasks, full, seed, obs_on):
        sent_to_worker.extend(tasks)
        studies._table2_worker(conn, tasks, full, seed, obs_on)

    _use(monkeypatch, _Context(body))
    monkeypatch.setattr(studies, "_table2_row", _fake_row)
    rows = studies._table2_rows(("okg", "mnist", "har"), True, 9)
    assert sent_to_worker == ["mnist", "har"]  # the first task trains here
    assert rows == [_fake_row(t, True, 9) for t in ("okg", "mnist", "har")]


def test_an_exception_of_the_first_task_propagates(monkeypatch):
    def row(task, full, seed):
        if task == "mnist":
            raise ConfigurationError("mnist diverged")
        return _fake_row(task, full, seed)

    context = _Context()
    _use(monkeypatch, context)
    monkeypatch.setattr(studies, "_table2_row", row)
    with pytest.raises(ConfigurationError, match="^mnist diverged$"):
        studies._table2_rows(("mnist", "har", "okg"), False, 0)
    assert context.processes[0].calls == ["start", "terminate", "join"]


def test_an_exception_of_a_worker_task_propagates(monkeypatch):
    """A task that raised on the worker is not trained again here: its
    exception reaches the caller as the serial loop would raise it."""
    trained_here = []

    def row(task, full, seed):
        trained_here.append(task)
        if task == "har":
            raise ConfigurationError("har diverged")
        return _fake_row(task, full, seed)

    context = _Context()
    _use(monkeypatch, context)
    monkeypatch.setattr(studies, "_table2_row", row)
    with pytest.raises(ConfigurationError, match="^har diverged$"):
        studies._table2_rows(("mnist", "har", "okg"), False, 0)
    # har raised on the (inline) worker, which then stopped before okg.
    assert trained_here == ["har", "mnist"]
    assert context.processes[0].calls == ["start", "terminate", "join"]


def _alive(pid) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_exit_does_not_wait_for_an_abandoned_worker(tmp_path):
    """An interpreter that exits while a thread is still in
    ``_table2_rows`` (a ``repro serve`` job abandoned at its timeout)
    terminates the worker instead of waiting for its tasks: here six
    full-profile trainings, minutes of work."""
    script = textwrap.dedent("""
        import multiprocessing, threading, time
        from repro.study import studies

        threading.Thread(target=studies._table2_rows,
                         args=(("har",) + ("mnist", "okg") * 3, True, 0),
                         daemon=True).start()
        deadline = time.monotonic() + 30
        while not multiprocessing.active_children():
            assert time.monotonic() < deadline, "no worker"
            time.sleep(0.01)
        print(multiprocessing.active_children()[0].pid, flush=True)
    """)
    proc = subprocess.Popen(
        [sys.executable, "-c", script], cwd=tmp_path, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    pid = None
    try:
        pid = int(proc.stdout.readline())
        returncode = proc.wait(timeout=30)
        worker_alive = _alive(pid)
    finally:
        proc.kill()
        proc.wait()
        if pid is not None and _alive(pid):
            os.kill(pid, signal.SIGKILL)
    assert returncode == 0, proc.stderr.read()
    # The exiting interpreter terminated and reaped its worker.
    assert not worker_alive
