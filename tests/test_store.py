"""Durable result store: shards, codec, cache, resume, atomic artifacts.

Covers the :mod:`repro.store` package bottom-up — ShardStore commit and
recovery semantics, the lossless ScenarioResult codec, ResultStore
content addressing and counters — then the integration surfaces: a
FleetRunner resume replays bit-identically, one failing scenario becomes
an error row instead of killing the fleet, `run_study(store=...)`
serves archived tables, and the CLI's artifact sinks never destroy a
previous good artifact (including a write that dies mid-stream).
"""

import dataclasses
import json
import math
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import SIM_SEMANTICS
from repro.errors import ConfigurationError, ScenarioExecutionError
from repro.fleet.grid import default_grid
from repro.fleet.report import ScenarioResult
from repro.fleet.runner import FleetRunner, _failure_result, execute_scenario
from repro.fleet.scenario import Scenario, TraceSpec
from repro.sim.results import RunResult
from repro.sim.session import SessionStats
from repro.store import (
    MANIFEST_NAME,
    ResultStore,
    ShardStore,
    decode_result,
    encode_record,
    encode_result,
    scenario_key,
    study_table_key,
)
from repro.store.shards import SHARD_DIR
from repro.study import Profile, run_study
from repro.study.table import ResultTable

COLUMNS = (("name", "str"), ("value", "float"), ("count", "int"))


def _small_grid(n_samples=1, tasks=("mnist",)):
    return default_grid(tasks=tasks, n_samples=n_samples)


def _fill(store, rows):
    for i in range(rows):
        store.append(name=f"row-{i}", value=float(i) * 0.1, count=i)


# ---------------------------------------------------------------------------
# ShardStore
# ---------------------------------------------------------------------------


class TestShardStore:
    def test_round_trip_bit_identical(self, tmp_path):
        store = ShardStore(tmp_path / "st", COLUMNS, shard_rows=3)
        expected = ResultTable(COLUMNS)
        values = [0.1, float("nan"), -0.0, math.pi, float("inf"), 1e-300, 2.5]
        for i, v in enumerate(values):
            store.append(name=f"r{i}", value=v, count=i)
            expected.append(name=f"r{i}", value=v, count=i)
        store.flush()
        reopened = ShardStore(tmp_path / "st", COLUMNS)
        assert reopened.load_table() == expected

    def test_auto_flush_every_shard_rows(self, tmp_path):
        store = ShardStore(tmp_path / "st", COLUMNS, shard_rows=2)
        _fill(store, 5)
        # 5 appends at shard_rows=2: two auto-committed shards + 1 pending.
        assert store.shards == 2
        assert store.committed_rows == 4
        assert store.pending_rows == 1
        store.flush()
        assert store.shards == 3
        assert store.committed_rows == 5

    def test_flush_empty_is_noop(self, tmp_path):
        store = ShardStore(tmp_path / "st", COLUMNS)
        store.flush()
        assert store.shards == 0

    def test_durability_without_final_flush(self, tmp_path):
        # Only the unflushed tail is lost — committed shards survive.
        store = ShardStore(tmp_path / "st", COLUMNS, shard_rows=2)
        _fill(store, 5)
        del store  # no flush: simulates a killed process
        reopened = ShardStore(tmp_path / "st", COLUMNS)
        assert reopened.committed_rows == 4

    def test_meta_round_trips(self, tmp_path):
        ShardStore(tmp_path / "st", COLUMNS, meta={"kind": "test"})
        assert ShardStore(tmp_path / "st", COLUMNS).meta == {"kind": "test"}

    def test_open_missing_without_schema_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="needs a declared schema"):
            ShardStore(tmp_path / "nope")

    def test_schema_mismatch_rejected(self, tmp_path):
        ShardStore(tmp_path / "st", COLUMNS)
        with pytest.raises(ConfigurationError, match="holds schema"):
            ShardStore(tmp_path / "st", (("other", "str"),))

    def test_schemaless_open_accepts_stored_schema(self, tmp_path):
        store = ShardStore(tmp_path / "st", COLUMNS, shard_rows=2)
        _fill(store, 2)
        reopened = ShardStore(tmp_path / "st")
        assert [c.name for c in reopened.schema] == ["name", "value", "count"]
        assert reopened.committed_rows == 2

    def test_shard_rows_validated(self, tmp_path):
        with pytest.raises(ConfigurationError, match="shard_rows"):
            ShardStore(tmp_path / "st", COLUMNS, shard_rows=0)

    def test_torn_final_shard_recovered(self, tmp_path):
        store = ShardStore(tmp_path / "st", COLUMNS, shard_rows=2)
        _fill(store, 6)  # three committed shards
        last = tmp_path / "st" / SHARD_DIR / "shard-000002.npz"
        last.write_bytes(last.read_bytes()[:10])  # tear the tail
        reopened = ShardStore(tmp_path / "st", COLUMNS)
        assert reopened.recovered == ["shard-000002.npz"]
        assert reopened.committed_rows == 4
        assert not last.exists()
        # Recovery rewrote the manifest: a third open is clean.
        third = ShardStore(tmp_path / "st", COLUMNS)
        assert third.recovered == []
        assert third.committed_rows == 4

    def test_missing_final_shard_recovered(self, tmp_path):
        store = ShardStore(tmp_path / "st", COLUMNS, shard_rows=2)
        _fill(store, 4)
        (tmp_path / "st" / SHARD_DIR / "shard-000001.npz").unlink()
        reopened = ShardStore(tmp_path / "st", COLUMNS)
        assert reopened.recovered == ["shard-000001.npz"]
        assert reopened.committed_rows == 2

    def test_recovered_store_appends_cleanly(self, tmp_path):
        store = ShardStore(tmp_path / "st", COLUMNS, shard_rows=2)
        _fill(store, 4)
        last = tmp_path / "st" / SHARD_DIR / "shard-000001.npz"
        last.write_bytes(b"torn")
        reopened = ShardStore(tmp_path / "st", COLUMNS, shard_rows=2)
        reopened.append(name="new", value=1.0, count=9)
        reopened.flush()
        # The replacement shard reuses the freed index.
        assert reopened.shards == 2
        assert ShardStore(tmp_path / "st", COLUMNS).committed_rows == 3

    def test_torn_middle_shard_is_an_error(self, tmp_path):
        store = ShardStore(tmp_path / "st", COLUMNS, shard_rows=2)
        _fill(store, 6)
        middle = tmp_path / "st" / SHARD_DIR / "shard-000001.npz"
        middle.write_bytes(b"garbage")
        with pytest.raises(ConfigurationError, match="not the final shard"):
            ShardStore(tmp_path / "st", COLUMNS)

    def test_stray_tmp_files_swept(self, tmp_path):
        store = ShardStore(tmp_path / "st", COLUMNS, shard_rows=2)
        _fill(store, 2)
        stray = tmp_path / "st" / SHARD_DIR / "shard-000009.npz.tmp"
        stray.write_bytes(b"unpublished")
        ShardStore(tmp_path / "st", COLUMNS)
        assert not stray.exists()

    def test_corrupt_manifest_rejected(self, tmp_path):
        ShardStore(tmp_path / "st", COLUMNS)
        (tmp_path / "st" / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(ConfigurationError, match="corrupt store manifest"):
            ShardStore(tmp_path / "st", COLUMNS)

    def test_future_manifest_format_rejected(self, tmp_path):
        ShardStore(tmp_path / "st", COLUMNS)
        path = tmp_path / "st" / MANIFEST_NAME
        payload = json.loads(path.read_text())
        payload["format"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="manifest format"):
            ShardStore(tmp_path / "st", COLUMNS)

    def test_row_count_mismatch_detected(self, tmp_path):
        store = ShardStore(tmp_path / "st", COLUMNS, shard_rows=2)
        _fill(store, 2)
        path = tmp_path / "st" / MANIFEST_NAME
        payload = json.loads(path.read_text())
        payload["shards"][0]["rows"] = 7
        path.write_text(json.dumps(payload))
        reopened = ShardStore(tmp_path / "st", COLUMNS)
        with pytest.raises(ConfigurationError, match="manifest says 7"):
            list(reopened.iter_rows())


# ---------------------------------------------------------------------------
# Result codec
# ---------------------------------------------------------------------------


def _scenario(name="codec/test"):
    return Scenario(name=name, task="mnist", runtime="ACE+FLEX",
                    trace=TraceSpec("square"), cap_uf=100.0, n_samples=1)


def _run_result(**over):
    base = dict(
        runtime="ACE+FLEX",
        completed=True,
        logits=np.array([[1.25, -0.5, float("nan")]], dtype=np.float32),
        predicted_class=0,
        wall_time_s=0.1 + 0.2,  # a float with no short decimal repr
        active_time_s=0.05,
        charge_time_s=math.pi,
        energy_j=1e-3,
        energy_by_component={"cpu": 1e-4, "lea": float("nan")},
        checkpoint_energy_j=-0.0,
        reboots=3,
        executed_cycles=12345,
        program_cycles=11111,
        dnf_reason="",
    )
    base.update(over)
    return RunResult(**base)


class TestResultCodec:
    def test_round_trip_bit_identical(self):
        scenario = _scenario()
        result = ScenarioResult(
            scenario=scenario,
            stats=SessionStats(runtime="ACE+FLEX",
                               results=[_run_result(), _run_result(reboots=0)]),
            labels=(7, 2),
            overflow_events=4,
        )
        back = decode_result(scenario, encode_result(result))
        assert back.scenario is scenario
        assert back.labels == (7, 2)
        assert back.overflow_events == 4
        assert back.error == ""
        assert len(back.stats.results) == 2
        for orig, rt in zip(result.stats.results, back.stats.results):
            for field in ("runtime", "completed", "predicted_class",
                          "reboots", "executed_cycles", "program_cycles",
                          "dnf_reason"):
                assert getattr(rt, field) == getattr(orig, field)
            # Floats: bit-exact, NaN included.
            assert repr(rt.wall_time_s) == repr(orig.wall_time_s)
            assert repr(rt.charge_time_s) == repr(orig.charge_time_s)
            assert math.copysign(1.0, rt.checkpoint_energy_j) == -1.0
            assert set(rt.energy_by_component) == set(orig.energy_by_component)
            assert math.isnan(rt.energy_by_component["lea"])
            assert rt.logits.dtype == orig.logits.dtype
            assert rt.logits.shape == orig.logits.shape
            assert rt.logits.tobytes() == orig.logits.tobytes()

    def test_none_logits_round_trip(self):
        scenario = _scenario()
        result = ScenarioResult(
            scenario=scenario,
            stats=SessionStats(runtime="BASE",
                               results=[_run_result(logits=None,
                                                    completed=False)]),
        )
        back = decode_result(scenario, encode_result(result))
        assert back.stats.results[0].logits is None

    def test_error_round_trips(self):
        scenario = _scenario()
        failure = _failure_result(scenario, ValueError("boom"))
        back = decode_result(scenario, encode_result(failure))
        assert back.error == "ValueError: boom"
        assert back.stats.results == []

    def test_real_simulation_round_trips_bit_identical(self):
        from repro.fleet.cache import ModelCache

        scenario = _small_grid()[0]
        result = execute_scenario(scenario, ModelCache().get(scenario))
        back = decode_result(scenario, encode_result(result))
        # Re-encoding the decoded record must reproduce the exact payload:
        # JSON repr round-trip is a fixed point.
        assert encode_result(back) == encode_result(result)

    def test_schema_drift_rejected(self):
        scenario = _scenario()
        payload = json.loads(encode_result(ScenarioResult(
            scenario=scenario,
            stats=SessionStats(runtime="BASE", results=[_run_result()]),
        )))
        del payload["results"][0]["reboots"]
        with pytest.raises(ConfigurationError, match="schema change"):
            decode_result(scenario, json.dumps(payload))

    def test_format_and_corruption_rejected(self):
        scenario = _scenario()
        with pytest.raises(ConfigurationError, match="corrupt"):
            decode_result(scenario, "{oops")
        with pytest.raises(ConfigurationError, match="format"):
            decode_result(scenario, json.dumps({"format": 99}))


# ---------------------------------------------------------------------------
# Content-addressed keys
# ---------------------------------------------------------------------------


class TestKeys:
    def test_key_is_deterministic(self):
        s = _scenario()
        assert scenario_key(s) == scenario_key(s)

    def test_key_covers_every_axis(self):
        s = _scenario()
        base = scenario_key(s)
        assert scenario_key(s, semantics=SIM_SEMANTICS + 1) != base
        assert scenario_key(dataclasses.replace(s, seed=1)) != base
        assert scenario_key(dataclasses.replace(s, cap_uf=101.0)) != base
        assert scenario_key(
            dataclasses.replace(s, trace=TraceSpec("square", 6e-3))) != base

    def test_key_ignores_name(self):
        # The name is a label, not simulation input: two differently
        # named but physically identical scenarios share a result.
        s = _scenario()
        renamed = dataclasses.replace(s, name="other/name")
        assert scenario_key(s) == scenario_key(renamed)

    def test_study_table_key(self):
        p = Profile()
        base = study_table_key("fig8", p)
        assert study_table_key("fig8", p) == base
        assert study_table_key("fig7", p) != base
        assert study_table_key("fig8", Profile(seed=1)) != base


# ---------------------------------------------------------------------------
# ResultStore
# ---------------------------------------------------------------------------


class TestResultStore:
    def test_put_lookup_counters(self, tmp_path):
        store = ResultStore(tmp_path / "st", shard_rows=2)
        scenario = _scenario()
        key = scenario_key(scenario)
        assert store.lookup(key) is None
        assert (store.hits, store.misses) == (0, 1)
        result = ScenarioResult(
            scenario=scenario,
            stats=SessionStats(runtime="ACE+FLEX", results=[_run_result()]),
        )
        store.put(key, result)
        assert store.lookup(key) == encode_result(result)
        assert (store.hits, store.misses) == (1, 1)
        assert len(store) == 1 and key in store

    def test_lookup_takes_a_batch(self, tmp_path):
        store = ResultStore(tmp_path / "st")
        scenario = _scenario()
        key = scenario_key(scenario)
        other = scenario_key(dataclasses.replace(scenario, seed=1))
        result = ScenarioResult(
            scenario=scenario,
            stats=SessionStats(runtime="ACE+FLEX", results=[_run_result()]),
        )
        store.put(key, result)
        assert store.lookup([other, key, other]) == \
            [None, encode_result(result), None]
        assert store.lookup([]) == []
        assert (store.hits, store.misses) == (1, 2)

    def test_put_of_an_encoded_record_equals_put_of_the_result(
            self, tmp_path):
        scenario = _scenario()
        key = scenario_key(scenario)
        result = ScenarioResult(
            scenario=scenario,
            stats=SessionStats(runtime="ACE+FLEX", results=[_run_result()]),
        )
        for name, value in (("live", result), ("encoded",
                                               encode_record(result))):
            store = ResultStore(tmp_path / name)
            store.put(key, value)
            store.flush()
        a, b = (list(ShardStore(tmp_path / n).iter_rows())
                for n in ("live", "encoded"))
        assert a == b and len(a) == 1
        failure = _failure_result(scenario, RuntimeError("transient"))
        with pytest.raises(ConfigurationError, match="refusing to cache"):
            encode_record(failure)

    def test_a_store_keyed_by_engine_is_refused(self, tmp_path):
        """A store written while the engine was part of every key (with
        an ``engine`` column) holds rows no key reaches any more: opening
        it is a schema error, not a store that silently misses."""
        old = (("key", "str"), ("scenario", "str"), ("engine", "str"),
               ("payload", "str"))
        ShardStore(tmp_path / "st", old, meta={"kind": "scenario-results"})
        with pytest.raises(ConfigurationError, match="schema"):
            ResultStore(tmp_path / "st")

    def test_put_is_buffered_until_flush(self, tmp_path):
        store = ResultStore(tmp_path / "st", shard_rows=100)
        scenario = _scenario()
        result = ScenarioResult(
            scenario=scenario,
            stats=SessionStats(runtime="ACE+FLEX", results=[_run_result()]),
        )
        store.put(scenario_key(scenario), result)
        assert len(ResultStore(tmp_path / "st")) == 0  # not yet durable
        store.flush()
        assert len(ResultStore(tmp_path / "st")) == 1

    def test_duplicate_put_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path / "st")
        scenario = _scenario()
        key = scenario_key(scenario)
        result = ScenarioResult(
            scenario=scenario,
            stats=SessionStats(runtime="ACE+FLEX", results=[_run_result()]),
        )
        store.put(key, result)
        store.put(key, result)
        store.flush()
        assert len(ResultStore(tmp_path / "st")) == 1

    def test_failures_are_never_cached(self, tmp_path):
        store = ResultStore(tmp_path / "st")
        scenario = _scenario()
        failure = _failure_result(scenario, RuntimeError("transient"))
        with pytest.raises(ConfigurationError, match="refusing to cache"):
            store.put(scenario_key(scenario), failure)

    def test_table_archive_counters(self, tmp_path):
        store = ResultStore(tmp_path / "st")
        table = ResultTable(COLUMNS)
        table.append(name="a", value=float("nan"), count=1)
        key = study_table_key("fig8", Profile())
        assert store.load_table(key) is None
        store.save_table(key, table)
        assert store.load_table(key) == table
        assert (store.table_hits, store.table_misses) == (1, 1)
        assert "table cache 1 hits / 1 misses" in store.summary()

    def test_recovered_shards_surface_in_summary(self, tmp_path):
        store = ResultStore(tmp_path / "st", shard_rows=1)
        scenario = _scenario()
        result = ScenarioResult(
            scenario=scenario,
            stats=SessionStats(runtime="ACE+FLEX", results=[_run_result()]),
        )
        store.put(scenario_key(scenario), result)
        store.flush()
        shard = tmp_path / "st" / SHARD_DIR / "shard-000000.npz"
        shard.write_bytes(b"torn")
        reopened = ResultStore(tmp_path / "st")
        assert reopened.recovered_shards == ("shard-000000.npz",)
        assert "recovered from torn shard" in reopened.summary()
        assert len(reopened) == 0


# ---------------------------------------------------------------------------
# FleetRunner + store: resume, failure policy
# ---------------------------------------------------------------------------


class TestRunnerWithStore:
    def test_resume_is_bit_identical(self, tmp_path):
        grid = _small_grid()
        plain = FleetRunner(1, parallel=False).run(grid)
        store = ResultStore(tmp_path / "st", shard_rows=2)
        first = FleetRunner(1, parallel=False).run(grid[:7], store=store)
        assert first.from_cache == 0
        # A fresh process over the FULL grid: 7 replayed, rest simulated.
        store2 = ResultStore(tmp_path / "st", shard_rows=2)
        second = FleetRunner(1, parallel=False).run(grid, store=store2)
        assert second.from_cache == 7
        assert store2.hits == 7 and store2.misses == len(grid) - 7
        assert second.scenario_table() == plain.scenario_table()

    def test_cached_scenarios_skip_model_preparation(self, tmp_path):
        grid = _small_grid()
        store = ResultStore(tmp_path / "st")
        FleetRunner(1, parallel=False).run(grid, store=store)
        store2 = ResultStore(tmp_path / "st")
        runner = FleetRunner(1, parallel=False)
        report = runner.run(grid, store=store2)
        assert report.from_cache == len(grid)
        assert runner.cache.hits == 0 and runner.cache.misses == 0
        # unique_models still counts the specs' distinct models.
        assert report.unique_models == 1

    def test_parallel_run_commits_to_store(self, tmp_path):
        grid = _small_grid()[:4]
        store = ResultStore(tmp_path / "st", shard_rows=1)
        par = FleetRunner(2).run(grid, store=store)
        serial = FleetRunner(1, parallel=False).run(grid)
        pt, st = par.scenario_table(), serial.scenario_table()
        # Cells are bit-identical; meta differs (workers=2 vs 1).
        for name in pt.column_names:
            assert list(map(repr, pt.column(name))) == \
                list(map(repr, st.column(name)))
        assert len(ResultStore(tmp_path / "st")) == 4

    def test_failure_raises_by_default_and_names_scenario(self, monkeypatch):
        import repro.fleet.runner as runner_mod

        grid = _small_grid()[:3]

        def boom(scenario, qmodel, engine="reference", dataset=None,
                 trajectories=None):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(runner_mod, "execute_scenario", boom)
        with pytest.raises(ScenarioExecutionError) as err:
            FleetRunner(1, parallel=False).run(grid)
        assert err.value.scenario_name == grid[0].name
        assert "injected fault" in str(err.value)

    def test_record_mode_keeps_fleet_running(self, tmp_path, monkeypatch):
        import repro.fleet.runner as runner_mod

        grid = _small_grid()[:4]
        real = execute_scenario
        victim = grid[1].name

        def flaky(scenario, qmodel, engine="reference", dataset=None,
                  trajectories=None):
            if scenario.name == victim:
                raise RuntimeError("injected fault")
            return real(scenario, qmodel, engine=engine, dataset=dataset,
                        trajectories=trajectories)

        monkeypatch.setattr(runner_mod, "execute_scenario", flaky)
        store = ResultStore(tmp_path / "st")
        report = FleetRunner(1, parallel=False).run(
            grid, store=store, on_error="record")
        assert report.failures == 1
        assert len(report.results) == 4
        failed = report.results[1]
        assert "injected fault" in failed.error
        assert failed.stats.inferences == 0
        table = report.scenario_table()
        assert table.row(1)["error"] == failed.error
        assert "FAILED" in report.render()
        # The failure was NOT stored: a resume retries it (and only it).
        monkeypatch.setattr(runner_mod, "execute_scenario", real)
        store2 = ResultStore(tmp_path / "st")
        retry = FleetRunner(1, parallel=False).run(
            grid, store=store2, on_error="record")
        assert retry.from_cache == 3
        assert retry.failures == 0

    def test_raise_mode_still_flushes_finished_work(self, tmp_path,
                                                    monkeypatch):
        import repro.fleet.runner as runner_mod

        grid = _small_grid()[:4]
        real = execute_scenario
        victim = grid[2].name

        def flaky(scenario, qmodel, engine="reference", dataset=None,
                  trajectories=None):
            if scenario.name == victim:
                raise RuntimeError("injected fault")
            return real(scenario, qmodel, engine=engine, dataset=dataset,
                        trajectories=trajectories)

        monkeypatch.setattr(runner_mod, "execute_scenario", flaky)
        store = ResultStore(tmp_path / "st", shard_rows=1)
        with pytest.raises(ScenarioExecutionError):
            FleetRunner(1, parallel=False).run(grid, store=store)
        # The two scenarios that finished before the failure are durable.
        assert len(ResultStore(tmp_path / "st")) == 2

    def test_unknown_on_error_rejected(self):
        with pytest.raises(ConfigurationError, match="on_error"):
            FleetRunner(1, parallel=False).run(_small_grid()[:1],
                                               on_error="ignore")


# ---------------------------------------------------------------------------
# run_study with a store
# ---------------------------------------------------------------------------


class TestRunStudyWithStore:
    def test_fleet_study_resumes_from_scenario_cache(self, tmp_path):
        profile = Profile(tasks=("mnist",), samples=1)
        plain = run_study("fleet", parallel=False, profile=profile)
        store = ResultStore(tmp_path / "st")
        first = run_study("fleet", parallel=False, profile=profile,
                          store=store)
        assert first.table == plain.table
        assert first.store is store
        # Second run: the finished table itself is archived — served
        # without touching the scenario level at all.
        store2 = ResultStore(tmp_path / "st")
        second = run_study("fleet", parallel=False, profile=profile,
                           store=store2)
        assert second.report is None  # nothing executed
        assert store2.table_hits == 1
        assert second.table == plain.table

    def test_scenario_cache_serves_profile_variations(self, tmp_path):
        # A different samples count is a different table key, but the
        # sweeps share no cells; same profile re-run after deleting the
        # archived table falls back to the per-scenario level.
        profile = Profile(tasks=("mnist",), samples=1)
        store = ResultStore(tmp_path / "st")
        run_study("fleet", parallel=False, profile=profile, store=store)
        key = study_table_key("fleet", profile)
        (tmp_path / "st" / "tables" / f"{key}.npz").unlink()
        store2 = ResultStore(tmp_path / "st")
        second = run_study("fleet", parallel=False, profile=profile,
                           store=store2)
        assert second.report is not None
        assert second.report.from_cache == len(second.report)
        assert store2.table_misses == 1

    def test_a_table_one_engine_archived_is_a_hit_for_the_other(
            self, tmp_path):
        profile = Profile(tasks=("mnist",), samples=1)
        store = ResultStore(tmp_path / "st")
        fast = run_study("fleet", engine="fast", parallel=False,
                         profile=profile, store=store)
        reference = run_study("fleet", engine="reference", parallel=False,
                              profile=profile, store=store)
        assert reference.from_table_cache is True
        assert reference.table.to_json() == fast.table.to_json()
        # Without the table, every scenario row is a hit too.
        key = study_table_key("fleet", profile)
        (tmp_path / "st" / "tables" / f"{key}.npz").unlink()
        again = run_study("fleet", engine="reference", parallel=False,
                          profile=profile, store=store)
        assert again.report.from_cache == len(again.report)
        assert again.table.to_json() == fast.table.to_json()

    def test_direct_study_uses_table_archive(self, tmp_path):
        store = ResultStore(tmp_path / "st")
        first = run_study("table1", store=store)
        assert store.table_misses == 1
        store2 = ResultStore(tmp_path / "st")
        second = run_study("table1", store=store2)
        assert store2.table_hits == 1
        assert second.table == first.table
        assert second.render() == first.render()

    def test_on_error_rejected_for_direct_studies(self):
        with pytest.raises(ConfigurationError, match="not fleet-executed"):
            run_study("table1", on_error="record")

    def test_unknown_on_error_rejected(self):
        with pytest.raises(ConfigurationError, match="on_error"):
            run_study("fleet", on_error="sometimes",
                      profile=Profile(tasks=("mnist",), samples=1))

    def test_failed_run_does_not_archive_table(self, tmp_path, monkeypatch):
        import repro.fleet.runner as runner_mod

        real = execute_scenario

        def flaky(scenario, qmodel, engine="reference", dataset=None,
                  trajectories=None):
            if scenario.name.endswith("SONIC"):
                raise RuntimeError("injected fault")
            return real(scenario, qmodel, engine=engine, dataset=dataset,
                        trajectories=trajectories)

        monkeypatch.setattr(runner_mod, "execute_scenario", flaky)
        profile = Profile(tasks=("mnist",), samples=1)
        store = ResultStore(tmp_path / "st")
        first = run_study("fleet", parallel=False, profile=profile,
                          store=store, on_error="record")
        assert first.report.failures > 0
        assert not (tmp_path / "st" / "tables").is_dir()
        # Healthy retry: good cells replay, failed cells re-simulate, and
        # the final table now matches an uninterrupted healthy run.
        monkeypatch.setattr(runner_mod, "execute_scenario", real)
        store2 = ResultStore(tmp_path / "st")
        second = run_study("fleet", parallel=False, profile=profile,
                           store=store2, on_error="record")
        assert second.report.failures == 0
        plain = run_study("fleet", parallel=False, profile=profile)
        assert second.table == plain.table
