"""Chaos tests for :mod:`repro.faults` and the self-healing stack.

Three layers of coverage:

1. the injection machinery itself — frozen plan validation, JSON round
   trips, deterministic nth/Bernoulli triggers, the env-var door;
2. the supervised fleet pool — a kill -9'd worker is respawned, its
   scenario re-dispatched, and the recovered run is *bit-identical* to
   a clean serial run; exhausted retries become typed ``worker_lost``
   rows; a collapsing pool degrades to serial and still completes;
3. store and serve resilience — ENOSPC/torn-write flushes retry without
   double-publishing, a kill -9 mid-flush leaves a recoverable store,
   transiently failing serve jobs retry to a byte-equal table, and the
   HTTP client rides out 503s and server-startup races.

Set ``REPRO_CHAOS_SMOKE=1`` to shrink the fleet grids (CI's chaos-smoke
job does) — every assertion still runs, on less simulation.
"""

import errno
import json
import os
import socket
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro import obs
from repro.cli import main
from repro.errors import ConfigurationError, JobFailedError, WorkerLostError
from repro.faults import (
    ENV_VAR,
    FaultInjected,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    call_with_retry,
    inject,
    is_transient,
)
from repro.fleet import FleetRunner, TraceSpec, scenario_grid
from repro.serve import JobSpec, ServeClient, StudyService, serve_http
from repro.store.shards import MANIFEST_NAME, SHARD_DIR, ShardStore
from repro.study import Profile, ResultTable, Study, register, run_study
from repro.study.core import _REGISTRY

SMOKE = os.environ.get("REPRO_CHAOS_SMOKE") == "1"

#: A fast deterministic policy for tests (real defaults back off longer).
FAST = RetryPolicy(max_attempts=3, backoff_base_s=0.01)

COLUMNS = (("name", "str"), ("value", "float"))


@pytest.fixture(autouse=True)
def _disarm():
    """Every test starts and ends with injection disarmed and obs clean."""
    inject.uninstall()
    obs.reset()
    obs.disable()
    yield
    inject.uninstall()
    obs.reset()
    obs.disable()


def _rule(site="store.flush", kind="exception", **kw):
    if "nth" not in kw and not kw.get("probability"):
        kw["nth"] = 1
    return FaultRule(site=site, kind=kind, **kw)


# ---------------------------------------------------------------------------
# Plans and rules
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_rejects_unknown_site_and_kind(self):
        with pytest.raises(ConfigurationError, match="unknown fault site"):
            FaultRule(site="reactor.core", kind="exception", nth=1)
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultRule(site="store.flush", kind="gremlins", nth=1)

    def test_requires_exactly_one_trigger(self):
        with pytest.raises(ConfigurationError, match="exactly one trigger"):
            FaultRule(site="store.flush", kind="exception")
        with pytest.raises(ConfigurationError, match="exactly one trigger"):
            FaultRule(site="store.flush", kind="exception", nth=1,
                      probability=0.5)

    def test_validates_ranges(self):
        with pytest.raises(ConfigurationError, match="nth is 1-based"):
            _rule(nth=0)
        with pytest.raises(ConfigurationError, match="probability"):
            _rule(probability=1.5)
        with pytest.raises(ConfigurationError, match="times"):
            _rule(times=0)
        with pytest.raises(ConfigurationError, match="delay_s"):
            _rule(kind="delay", delay_s=0.0)

    def test_json_round_trip(self):
        plan = FaultPlan((
            _rule(nth=3, times=2),
            _rule(site="fleet.worker", kind="crash", probability=0.25,
                  seed=9, times=None),
        ))
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_dict_rejects_junk(self):
        with pytest.raises(ConfigurationError, match="unknown fault rule"):
            FaultRule.from_dict({"site": "store.flush", "kind": "exception",
                                 "nth": 1, "blast_radius": 9})
        with pytest.raises(ConfigurationError, match="'site' and 'kind'"):
            FaultRule.from_dict({"nth": 1})
        with pytest.raises(ConfigurationError, match="must be a list"):
            FaultPlan.from_dict({"rules": "all of them"})
        with pytest.raises(ConfigurationError, match="unknown fault plan"):
            FaultPlan.from_dict({"rules": [], "mode": "chaos"})
        with pytest.raises(ConfigurationError, match="bad fault plan JSON"):
            FaultPlan.from_json("{not json")

    def test_plan_rejects_non_rules(self):
        with pytest.raises(ConfigurationError, match="must be FaultRule"):
            FaultPlan(({"site": "store.flush"},))


# ---------------------------------------------------------------------------
# The injection runtime
# ---------------------------------------------------------------------------


class TestInject:
    def test_disabled_fire_is_inert(self):
        inject.fire("store.flush")
        assert inject.ENABLED is False
        assert inject.active_plan() is None
        assert inject.stats() == {"calls": {}, "fired": {}}

    def test_empty_plan_stays_disabled(self):
        inject.install(FaultPlan())
        assert inject.ENABLED is False

    def test_nth_trigger_fires_exactly_once(self):
        inject.install(FaultPlan((_rule(nth=3),)))
        inject.fire("store.flush")
        inject.fire("store.flush")
        with pytest.raises(FaultInjected) as err:
            inject.fire("store.flush")
        assert err.value.site == "store.flush"
        assert err.value.errno == errno.ENOSPC
        for _ in range(5):  # times=1: exhausted after the hit
            inject.fire("store.flush")
        assert inject.stats()["fired"] == {0: 1}

    def test_draw_counts_here_and_trigger_acts_later(self):
        """draw() is fire()'s evaluation without the effect; trigger()
        is the effect (what a serve worker process acts out)."""
        inject.install(FaultPlan((_rule(site="serve.execute", nth=2),)))
        assert inject.draw("serve.execute") == []
        [(rule, ordinal)] = inject.draw("serve.execute")
        assert (rule.nth, ordinal) == (2, 1)
        assert inject.draw("serve.execute") == []
        assert inject.stats() == {"calls": {0: 3}, "fired": {0: 1}}
        with pytest.raises(FaultInjected, match="fire #1"):
            inject.trigger(rule, "serve.execute", ordinal)

    def test_fault_injected_pickles_as_itself(self):
        import pickle

        exc = pickle.loads(pickle.dumps(FaultInjected("store.flush", 28, "x")))
        assert isinstance(exc, FaultInjected) and is_transient(exc)
        assert (exc.site, exc.errno, exc.strerror) == ("store.flush", 28, "x")
        lost = pickle.loads(pickle.dumps(WorkerLostError("cell", "died")))
        assert isinstance(lost, WorkerLostError) and is_transient(lost)
        assert (lost.scenario_name, lost.error) == ("cell", "died")

    def test_other_sites_unaffected(self):
        inject.install(FaultPlan((_rule(site="serve.execute", nth=1),)))
        inject.fire("store.flush")
        inject.fire("fleet.worker")
        with pytest.raises(FaultInjected):
            inject.fire("serve.execute")

    def test_bernoulli_trigger_is_seed_deterministic(self):
        rule = _rule(probability=0.4, seed=11, times=None)

        def pattern():
            inject.install(FaultPlan((rule,)))
            hits = []
            for i in range(40):
                try:
                    inject.fire("store.flush")
                except FaultInjected:
                    hits.append(i)
            return hits

        first, second = pattern(), pattern()
        assert first == second
        assert 0 < len(first) < 40  # actually Bernoulli, not constant

    def test_times_caps_bernoulli_fires(self):
        inject.install(FaultPlan((_rule(probability=1.0, times=2),)))
        fired = 0
        for _ in range(5):
            try:
                inject.fire("store.flush")
            except FaultInjected:
                fired += 1
        assert fired == 2

    def test_delay_kind_sleeps_and_returns(self):
        inject.install(FaultPlan((_rule(kind="delay", delay_s=0.01),)))
        t0 = time.monotonic()
        inject.fire("store.flush")
        assert time.monotonic() - t0 >= 0.009

    def test_torn_write_halves_the_file_then_raises(self, tmp_path):
        victim = tmp_path / "shard.npz.tmp"
        victim.write_bytes(b"x" * 100)
        inject.install(FaultPlan((_rule(kind="torn_write"),)))
        with pytest.raises(FaultInjected):
            inject.fire("store.flush", path=str(victim))
        assert victim.stat().st_size == 50

    def test_injected_is_transient_oserror(self):
        exc = FaultInjected("store.flush", errno.EIO, "injected")
        assert isinstance(exc, OSError)
        assert exc.errno == errno.EIO
        assert is_transient(exc)

    def test_fires_are_counted_when_obs_on(self):
        obs.enable()
        inject.install(FaultPlan((_rule(nth=1),)))
        with pytest.raises(FaultInjected):
            inject.fire("store.flush")
        counters = obs.snapshot()["counters"]
        assert counters["faults.injected"] == 1
        assert counters["faults.injected.store.flush"] == 1

    def test_env_var_installs_in_subprocess(self):
        plan = FaultPlan((_rule(site="serve.http", nth=2),))
        env = dict(os.environ, **{ENV_VAR: plan.to_json()})
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.faults import inject; "
             "print(inject.ENABLED, inject.active_plan().rules[0].site)"],
            env=env, capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "True serve.http"

    def test_env_var_malformed_fails_loudly(self):
        env = dict(os.environ, **{ENV_VAR: "{broken"})
        out = subprocess.run(
            [sys.executable, "-c", "import repro.faults.inject"],
            env=env, capture_output=True, text=True,
        )
        assert out.returncode != 0
        assert "bad fault plan JSON" in out.stderr


# ---------------------------------------------------------------------------
# RetryPolicy / call_with_retry
# ---------------------------------------------------------------------------


class TestRetry:
    def test_policy_validates(self):
        with pytest.raises(ConfigurationError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError, match="backoff_base_s"):
            RetryPolicy(backoff_base_s=-1.0)
        with pytest.raises(ConfigurationError, match="backoff_cap_s"):
            RetryPolicy(backoff_base_s=1.0, backoff_cap_s=0.5)

    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(backoff_base_s=0.05, backoff_cap_s=0.4,
                             jitter_seed=3)
        assert policy.backoff_s(2) == policy.backoff_s(2)
        assert policy.backoff_s(2) != RetryPolicy(
            backoff_base_s=0.05, backoff_cap_s=0.4, jitter_seed=4
        ).backoff_s(2)
        for attempt in range(1, 12):
            assert policy.backoff_s(attempt) <= 0.4

    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError(errno.EIO, "weather")
            return "done"

        assert call_with_retry(flaky, policy=FAST) == "done"
        assert calls["n"] == 3

    def test_final_failure_propagates_unchanged(self):
        def doomed():
            raise OSError(errno.ENOSPC, "full")

        with pytest.raises(OSError, match="full"):
            call_with_retry(doomed, policy=FAST)

    def test_non_matching_exception_is_immediate(self):
        calls = {"n": 0}

        def buggy():
            calls["n"] += 1
            raise ValueError("a bug, not weather")

        with pytest.raises(ValueError):
            call_with_retry(buggy, policy=FAST)
        assert calls["n"] == 1

    def test_recovery_is_counted(self):
        obs.enable()
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError(errno.EIO, "weather")
            return 1

        call_with_retry(flaky, policy=FAST, site="store.flush")
        counters = obs.snapshot()["counters"]
        assert counters["faults.recovered"] == 1
        assert counters["faults.recovered.store.flush"] == 1
        assert counters["retry.failures.store.flush"] == 1

    def test_transient_classifier(self):
        assert is_transient(TimeoutError())
        assert is_transient(ConnectionError())
        assert is_transient(WorkerLostError("s", "died"))
        assert not is_transient(ValueError("bug"))
        assert not is_transient(FileNotFoundError("gone"))  # an OSError


# ---------------------------------------------------------------------------
# The supervised fleet pool
# ---------------------------------------------------------------------------


def _chaos_grid():
    return scenario_grid(
        tasks=("mnist",),
        runtimes=("TAILS", "ACE+FLEX"),
        traces=(TraceSpec("square", 5e-3, 0.05, 0.3),),
        caps_uf=(100.0, 220.0),
        n_samples=1 if SMOKE else 2,
    )


@pytest.fixture(scope="module")
def grid():
    return _chaos_grid()


@pytest.fixture(scope="module")
def serial(grid):
    """The clean baseline every recovery is asserted bit-identical to."""
    return FleetRunner(workers=1).run(grid)


def _assert_identical(clean, chaotic):
    import numpy as np

    for a, b in zip(clean.results, chaotic.results):
        assert a.scenario == b.scenario
        assert b.error == ""
        assert a.labels == b.labels
        assert a.overflow_events == b.overflow_events
        assert len(a.stats.results) == len(b.stats.results)
        for ra, rb in zip(a.stats.results, b.stats.results):
            assert ra.completed == rb.completed
            assert ra.wall_time_s == rb.wall_time_s
            assert ra.energy_j == rb.energy_j
            assert ra.reboots == rb.reboots
            assert ra.predicted_class == rb.predicted_class
            if ra.logits is None:
                assert rb.logits is None
            else:
                assert np.array_equal(ra.logits, rb.logits)


class TestFleetChaos:
    def test_killed_worker_recovers_bit_identical(self, grid, serial):
        """kill -9 mid-study: respawn, re-dispatch, zero output drift."""
        obs.enable()
        inject.install(FaultPlan((
            FaultRule(site="fleet.worker", kind="crash", nth=2),
        )))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no degrade warning allowed
            report = FleetRunner(workers=2, retry=FAST).run(grid)
        inject.uninstall()
        _assert_identical(serial, report)
        counters = obs.snapshot()["counters"]
        assert counters["fleet.worker_lost"] >= 1
        assert counters["fleet.respawns"] >= 1
        assert counters["faults.recovered.fleet.worker"] >= 1

    def test_injected_exception_becomes_error_rows(self, grid, serial):
        inject.install(FaultPlan((
            FaultRule(site="fleet.worker", kind="exception", nth=1),
        )))
        report = FleetRunner(workers=2, retry=FAST).run(
            grid, on_error="record"
        )
        inject.uninstall()
        failed = [r for r in report.results if r.error]
        assert failed, "the nth=1 rule must have fired"
        for r in failed:
            assert r.error_kind == "exception"
            assert "injected exception at fleet.worker" in r.error
        clean = {r.scenario.name: r for r in serial.results}
        for r in report.results:
            if not r.error:
                assert r.labels == clean[r.scenario.name].labels

    def test_collapsing_pool_degrades_to_serial(self, grid, serial):
        """Every worker dies instantly; the run must still complete."""
        obs.enable()
        inject.install(FaultPlan((
            FaultRule(site="fleet.worker", kind="crash", nth=1),
        )))
        generous = RetryPolicy(max_attempts=10, backoff_base_s=0.01)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = FleetRunner(workers=2, retry=generous).run(grid)
        inject.uninstall()
        assert any("pool collapsed" in str(w.message) for w in caught)
        _assert_identical(serial, report)
        assert obs.snapshot()["counters"]["fleet.degraded_serial"] == 1

    def test_retry_exhaustion_records_worker_lost_rows(self, grid):
        inject.install(FaultPlan((
            FaultRule(site="fleet.worker", kind="crash", nth=1),
        )))
        tight = RetryPolicy(max_attempts=2, backoff_base_s=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = FleetRunner(workers=2, retry=tight).run(
                grid, on_error="record"
            )
        inject.uninstall()
        lost = [r for r in report.results if r.error_kind == "worker_lost"]
        assert lost, "the tight budget must have been exhausted"
        for r in lost:
            assert "worker process died" in r.error
        # Scenario rows carry the kind through the report table too.
        table = report.scenario_table()
        kinds = {row["scenario"]: row["error_kind"] for row in table}
        for r in report.results:
            assert kinds[r.scenario.name] == r.error_kind

    def test_raise_mode_raises_worker_lost_without_hanging(self, grid):
        inject.install(FaultPlan((
            FaultRule(site="fleet.worker", kind="crash", nth=1),
        )))
        no_retry = RetryPolicy(max_attempts=1, backoff_base_s=0.01)
        with pytest.raises(WorkerLostError, match="worker process died"):
            FleetRunner(workers=2, retry=no_retry).run(grid)

    def test_model_build_retries_transient_faults(self, grid):
        obs.enable()
        inject.install(FaultPlan((
            FaultRule(site="fleet.model_build", kind="exception", nth=1),
        )))
        runner = FleetRunner(workers=1, retry=FAST)
        models = runner.prepare_models(grid)
        inject.uninstall()
        assert len(models) == len({s.model_key for s in grid})
        counters = obs.snapshot()["counters"]
        assert counters["faults.recovered.fleet.model_build"] == 1


# ---------------------------------------------------------------------------
# Store resilience
# ---------------------------------------------------------------------------


def _fill(store, rows, offset=0):
    for i in range(rows):
        store.append(name=f"row{offset + i}", value=float(offset + i))


class TestStoreChaos:
    def test_enospc_flush_is_retried_once_not_republished(self, tmp_path):
        obs.enable()
        inject.install(FaultPlan((_rule(site="store.flush", nth=1),)))
        store = ShardStore(tmp_path / "st", COLUMNS, retry=FAST)
        _fill(store, 3)
        store.flush()  # first attempt fails, retry succeeds
        inject.uninstall()
        assert store.shards == 1
        assert store.committed_rows == 3
        assert store.pending_rows == 0
        shard_files = list((tmp_path / "st" / SHARD_DIR).glob("*.npz"))
        assert len(shard_files) == 1  # retried, never double-published
        counters = obs.snapshot()["counters"]
        assert counters["faults.recovered.store.flush"] == 1
        reopened = ShardStore(tmp_path / "st", COLUMNS)
        assert reopened.recovered == []
        assert reopened.committed_rows == 3

    def test_torn_write_flush_republishes_intact_shard(self, tmp_path):
        inject.install(FaultPlan((
            _rule(site="store.flush", kind="torn_write", nth=1),
        )))
        store = ShardStore(tmp_path / "st", COLUMNS, retry=FAST)
        _fill(store, 4)
        store.flush()
        inject.uninstall()
        # The retry rewrote the torn .tmp from the intact pending buffer;
        # the digest check on reopen proves the published shard is whole.
        reopened = ShardStore(tmp_path / "st", COLUMNS)
        assert reopened.recovered == []
        assert reopened.committed_rows == 4
        assert [r["name"] for r in reopened.iter_rows()] == [
            "row0", "row1", "row2", "row3"
        ]

    def test_exhausted_flush_keeps_pending_rows(self, tmp_path):
        inject.install(FaultPlan((
            _rule(site="store.flush", probability=1.0, times=None),
        )))
        store = ShardStore(
            tmp_path / "st", COLUMNS,
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
        )
        _fill(store, 2)
        with pytest.raises(FaultInjected):
            store.flush()
        assert store.shards == 0
        assert store.pending_rows == 2  # nothing lost, nothing committed
        inject.uninstall()
        store.flush()  # weather cleared: same rows commit cleanly
        assert store.committed_rows == 2

    def test_kill_9_during_flush_leaves_recoverable_store(self, tmp_path):
        """A real SIGKILL mid-flush: reopen sweeps the wreck, keeps history."""
        root = tmp_path / "st"
        store = ShardStore(root, COLUMNS, shard_rows=100)
        _fill(store, 2)
        store.flush()  # one durable shard before the chaos
        plan = FaultPlan((
            FaultRule(site="store.flush", kind="crash", nth=1),
        ))
        script = (
            "import sys\n"
            "from repro.store.shards import ShardStore\n"
            "store = ShardStore(sys.argv[1])\n"
            "for i in range(3):\n"
            "    store.append(name=f'doomed{i}', value=0.0)\n"
            "store.flush()\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, str(root)],
            env=dict(os.environ, **{ENV_VAR: plan.to_json()}),
            capture_output=True, text=True,
        )
        assert out.returncode in (-9, 137), (out.returncode, out.stderr)
        reopened = ShardStore(root, COLUMNS)
        assert reopened.committed_rows == 2  # pre-chaos history intact
        assert reopened.recovered == []
        assert list((root / SHARD_DIR).glob("*.tmp")) == []

    def test_manifest_tmp_from_killed_write_is_swept(self, tmp_path):
        root = tmp_path / "st"
        store = ShardStore(root, COLUMNS)
        _fill(store, 2)
        store.flush()
        stray = root / (MANIFEST_NAME + ".tmp")
        stray.write_text("{torn mid-write")
        reopened = ShardStore(root, COLUMNS)
        assert not stray.exists()
        assert reopened.committed_rows == 2

    def test_truncated_manifest_is_a_typed_error(self, tmp_path):
        root = tmp_path / "st"
        store = ShardStore(root, COLUMNS)
        _fill(store, 2)
        store.flush()
        manifest = root / MANIFEST_NAME
        text = manifest.read_text()
        manifest.write_text(text[: len(text) // 2])
        with pytest.raises(ConfigurationError, match="corrupt store manifest"):
            ShardStore(root, COLUMNS)

    def test_reopen_retries_transient_read_errors(self, tmp_path, monkeypatch):
        root = tmp_path / "st"
        store = ShardStore(root, COLUMNS)
        _fill(store, 2)
        store.flush()
        real = Path.read_text
        state = {"failed": False}

        def flaky(self, *args, **kwargs):
            if self.name == MANIFEST_NAME and not state["failed"]:
                state["failed"] = True
                raise OSError(errno.EIO, "cosmic ray")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", flaky)
        reopened = ShardStore(
            root, COLUMNS,
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
        )
        assert state["failed"]
        assert reopened.committed_rows == 2


# ---------------------------------------------------------------------------
# Serve resilience
# ---------------------------------------------------------------------------

TOY = "toy-chaos"


@pytest.fixture
def toy_study():
    def run(ctx):
        table = ResultTable(
            (("seed", "int"), ("value", "float")), meta={"study": TOY}
        )
        table.append(seed=ctx.profile.seed, value=ctx.profile.seed * 2.0)
        return table

    register(Study(
        name=TOY, title="toy chaos study", params=("seed",),
        run=run, render=lambda t: f"toy: {len(t)} rows",
    ))
    try:
        yield
    finally:
        _REGISTRY.pop(TOY, None)


def _spec(seed=0, **kw):
    return JobSpec(TOY, profile=Profile(seed=seed), **kw)


class TestServeChaos:
    def test_transient_execute_fault_retries_to_byte_equal(self, toy_study):
        with StudyService(workers=1) as clean_svc:
            baseline = clean_svc.run(_spec(seed=5), timeout=10).to_json()
        inject.install(FaultPlan((
            FaultRule(site="serve.execute", kind="exception", nth=1),
        )))
        with StudyService(workers=1, retry=FAST) as svc:
            table = svc.run(_spec(seed=5), timeout=10)
            counters = svc.counters()
        inject.uninstall()
        assert table.to_json() == baseline
        assert counters["retried"] == 1
        assert counters["executions"] == 1  # a retry is not a new execution
        assert counters["failed"] == 0

    def test_exhausted_execute_fault_fails_the_job(self, toy_study):
        inject.install(FaultPlan((
            FaultRule(site="serve.execute", kind="exception",
                      probability=1.0, times=None),
        )))
        with StudyService(workers=1, retry=FAST) as svc:
            job = svc.submit(_spec(seed=1))
            with pytest.raises(JobFailedError, match="injected exception"):
                svc.result(job.id, timeout=10)
            counters = svc.counters()
        inject.uninstall()
        assert counters["retried"] == FAST.max_attempts - 1
        assert counters["failed"] == 1

    def test_duplicates_ride_the_retry(self, toy_study):
        """A dedup hit attached to a retrying job waits it out."""
        inject.install(FaultPlan((
            FaultRule(site="serve.execute", kind="exception", nth=1),
        )))
        with StudyService(workers=1, retry=FAST) as svc:
            a = svc.submit(_spec(seed=2))
            b = svc.submit(_spec(seed=2))
            ta = svc.result(a.id, timeout=10)
            tb = svc.result(b.id, timeout=10)
            counters = svc.counters()
        inject.uninstall()
        assert ta.to_json() == tb.to_json()
        assert counters["executions"] == 1
        assert counters["dedup_hits"] == counters["submitted"] - 1

    def test_worker_crash_retries_on_a_respawned_worker(self):
        """kill -9 of a fleet job's worker process mid-job: the job is
        retried on a fresh worker and served byte-equal to run_study.
        The rule's count lives in the service, so the respawned worker
        does not crash again."""
        spec = dict(engine="fast", parallel=False)
        serial = run_study("sweep-trace", **spec).table.to_json()
        inject.install(FaultPlan((
            FaultRule(site="serve.execute", kind="crash", nth=1),
        )))
        with StudyService(workers=1, retry=FAST) as svc:
            table = svc.run(JobSpec("sweep-trace", **spec), timeout=120)
            counters = svc.counters()
        inject.uninstall()
        assert table.to_json() == serial
        assert counters["retried"] == 1
        assert counters["executions"] == 1
        assert counters["failed"] == 0

    def test_worker_killed_mid_pool_is_detected_and_reaped(self):
        """A worker SIGKILLed while its fleet pool runs.  An idle pool
        worker holds a copy of the worker's pipe and would wait for work
        forever, so no EOF arrives; the service must notice the death
        anyway, end the orphaned pool, and retry."""
        import multiprocessing
        import signal

        spec = dict(engine="fast", workers=2)
        serial = run_study("sweep-trace", engine="fast",
                           parallel=False).table.to_json()
        # Each pool worker's second cell stalls: of the three cells, the
        # last stalls on one pool worker while the other sits idle.
        inject.install(FaultPlan((
            FaultRule(site="fleet.worker", kind="delay", delay_s=2.0,
                      nth=2),
        )))
        try:
            with StudyService(workers=1, retry=FAST) as svc:
                svc.run(JobSpec("sweep-trace", engine="fast", parallel=False,
                                profile=Profile(seed=9)), timeout=120)
                [worker] = [p for p in multiprocessing.active_children()
                            if p.name.endswith("-proc")]
                job = svc.submit(JobSpec("sweep-trace", **spec))
                deadline = time.monotonic() + 10
                while job.state != "running" and time.monotonic() < deadline:
                    time.sleep(0.01)
                time.sleep(0.8)  # inside the stalled last cell
                os.kill(worker.pid, signal.SIGKILL)
                table = svc.result(job.id, timeout=60)
                counters = svc.counters()
        finally:
            inject.uninstall()
        assert table.to_json() == serial
        assert counters["retried"] == 1
        deadline = time.monotonic() + 10
        with pytest.raises(ProcessLookupError):  # the orphaned pool too
            while time.monotonic() < deadline:
                os.killpg(worker.pid, 0)
                time.sleep(0.05)

    def test_http_get_rides_out_injected_503(self, toy_study):
        svc = StudyService(workers=1)
        server = serve_http(svc)
        try:
            inject.install(FaultPlan((
                FaultRule(site="serve.http", kind="exception", nth=1),
            )))
            client = ServeClient(server.url, retry=FAST)
            health = client.health()  # first GET 503s, retry succeeds
            inject.uninstall()
            assert health["ok"] is True
        finally:
            inject.uninstall()
            server.shutdown()
            svc.close()

    def test_connection_refused_wait_is_bounded(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        client = ServeClient(
            f"http://127.0.0.1:{dead_port}",
            retry=RetryPolicy(max_attempts=1), connect_wait_s=0.3,
        )
        t0 = time.monotonic()
        with pytest.raises(Exception):
            client.health()
        assert time.monotonic() - t0 < 5.0  # bounded, no infinite spin

    def test_client_wins_server_startup_race(self, toy_study):
        with socket.socket() as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        svc = StudyService(workers=1)
        holder = {}

        def late_start():
            time.sleep(0.25)
            holder["server"] = serve_http(svc, port=port)

        thread = threading.Thread(target=late_start, daemon=True)
        thread.start()
        try:
            client = ServeClient(f"http://127.0.0.1:{port}",
                                 connect_wait_s=5.0)
            health = client.health()  # submitted before the server is up
            assert health["ok"] is True
        finally:
            thread.join(5.0)
            if "server" in holder:
                holder["server"].shutdown()
            svc.close()


# ---------------------------------------------------------------------------
# The CLI door
# ---------------------------------------------------------------------------


class TestCLIFaults:
    def test_run_arms_and_disarms_plan_file(self, tmp_path, capsys):
        plan = FaultPlan((_rule(site="serve.http", nth=99),))
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert main(["run", "table1", "--faults", str(path)]) == 0
        assert "fault injection armed" in capsys.readouterr().err
        assert inject.ENABLED is False  # disarmed on the way out

    def test_bad_plan_file_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text("{broken")
        assert main(["run", "table1", "--faults", str(path)]) == 1

    def test_missing_plan_file_is_a_config_error(self, tmp_path):
        assert main(
            ["run", "table1", "--faults", str(tmp_path / "nope.json")]
        ) == 1
