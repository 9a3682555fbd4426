"""Tests for :mod:`repro.obs` — the unified telemetry layer.

The three contracts under test (see the package docstring):

1. zero overhead when disabled — disabled sites never touch the
   registry, and the simulation outputs are bit-identical with
   observability on and off, on both engines, harvested and continuous;
2. deterministic merge — snapshots are associative, commutative
   integer folds, so parallel fleet totals equal serial totals;
3. the surfaces — counters, spans, chrome-trace export, StudyRun.obs,
   and the CLI (--metrics / --trace / stats / bench report).
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.errors import ConfigurationError
from repro.fleet import FleetRunner, Scenario, TraceSpec, scenario_grid
from repro.obs.snapshot import (
    SNAPSHOT_SCHEMA,
    empty_snapshot,
    merge,
    merge_all,
    validate_snapshot,
)


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with a disabled, empty registry."""
    obs.reset()
    obs.disable()
    yield
    obs.reset()
    obs.disable()


class TestMetrics:
    def test_disabled_is_inert(self):
        obs.count("a")
        obs.gauge("g", 1.0)
        obs.observe_ns("d", 100)
        snap = obs.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["durations"] == {}

    def test_enabled_records(self):
        obs.enable()
        assert obs.enabled()
        obs.count("a")
        obs.count("a", 4)
        obs.gauge("g", 1.5)
        obs.observe_ns("d", 1000)
        obs.observe_ns("d", 3000)
        snap = obs.snapshot()
        validate_snapshot(snap)
        assert snap["counters"] == {"a": 5}
        assert snap["gauges"] == {"g": 1.5}
        d = snap["durations"]["d"]
        assert d["count"] == 2
        assert d["total_ns"] == 4000
        assert d["min_ns"] == 1000 and d["max_ns"] == 3000
        assert sum(d["buckets"].values()) == 2

    def test_snapshot_seq_monotonic(self):
        obs.enable()
        s1, s2 = obs.snapshot(), obs.snapshot()
        assert s2["seq"] > s1["seq"]
        assert s1["pid"] == s2["pid"]

    def test_reset_clears_everything(self):
        obs.enable()
        obs.count("a")
        with obs.span("s"):
            pass
        obs.reset()
        assert obs.snapshot()["counters"] == {}
        assert obs.events() == []

    def test_absorb_adds(self):
        obs.enable()
        obs.count("a", 2)
        other = empty_snapshot()
        other["counters"]["a"] = 3
        other["counters"]["b"] = 1
        obs.absorb(other)
        snap = obs.snapshot()
        assert snap["counters"] == {"a": 5, "b": 1}


class TestSpans:
    def test_disabled_span_is_null(self):
        with obs.span("x", a=1):
            pass
        assert obs.events() == []
        assert obs.snapshot()["durations"] == {}

    def test_enabled_span_records_event_and_duration(self):
        obs.enable()
        with obs.span("phase", kind="t"):
            pass
        events = obs.events()
        assert len(events) == 1
        snap = obs.snapshot()
        assert snap["durations"]["span.phase"]["count"] == 1

    def test_record_closes_explicit_region(self):
        obs.enable()
        import time

        t0 = time.perf_counter_ns()
        obs.record("region", t0, n=4)
        assert obs.snapshot()["durations"]["span.region"]["count"] == 1

    def test_chrome_trace_export(self, tmp_path):
        obs.enable()
        with obs.span("outer", label="x"):
            with obs.span("inner"):
                pass
        path = tmp_path / "trace.json"
        with open(path, "w") as fh:
            n = obs.export_chrome_trace(fh)
        assert n == 2
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert len(events) == 2
        for ev in events:
            assert ev["ph"] == "X"
            assert ev["ts"] >= 0 and ev["dur"] >= 0
            assert isinstance(ev["pid"], int)
        names = {ev["name"] for ev in events}
        assert names == {"outer", "inner"}
        args = next(ev for ev in events if ev["name"] == "outer")["args"]
        assert args == {"label": "x"}


def _random_snapshot(rng):
    snap = empty_snapshot()
    for name in rng.choice(list("abcdef"), size=3, replace=False):
        snap["counters"][str(name)] = int(rng.integers(1, 100))
    for name in rng.choice(list("xyz"), size=2, replace=False):
        snap["gauges"][str(name)] = float(rng.integers(1, 10))
    for name in ("d1", "d2"):
        ns = [int(v) for v in rng.integers(100, 10_000_000, size=4)]
        snap["durations"][name] = {
            "count": len(ns),
            "total_ns": sum(ns),
            "min_ns": min(ns),
            "max_ns": max(ns),
            "buckets": {str(1 << 20): len(ns)},
        }
    return snap


class TestMerge:
    def test_merge_with_empty_is_identity(self):
        rng = np.random.default_rng(0)
        snap = _random_snapshot(rng)
        merged = merge(snap, empty_snapshot())
        assert merged["counters"] == snap["counters"]
        assert merged["gauges"] == snap["gauges"]
        assert merged["durations"] == snap["durations"]

    def test_merge_associative(self):
        rng = np.random.default_rng(1)
        a, b, c = (_random_snapshot(rng) for _ in range(3))
        left = merge(merge(a, b), c)
        right = merge(a, merge(b, c))
        assert left["counters"] == right["counters"]
        assert left["durations"] == right["durations"]
        # Gauges are float sums: associativity is exact here because the
        # test values are small integers stored as floats.
        assert left["gauges"] == right["gauges"]

    def test_merge_all_order_independent(self):
        rng = np.random.default_rng(2)
        snaps = [_random_snapshot(rng) for _ in range(5)]
        for i, s in enumerate(snaps):
            s["pid"] = 100 + i
            s["seq"] = i
        forward = merge_all(list(snaps))
        backward = merge_all(list(reversed(snaps)))
        shuffled = list(snaps)
        np.random.default_rng(3).shuffle(shuffled)
        scrambled = merge_all(shuffled)
        assert forward == backward == scrambled

    def test_merge_durations_fold_min_max(self):
        a, b = empty_snapshot(), empty_snapshot()
        a["durations"]["d"] = {
            "count": 1, "total_ns": 10, "min_ns": 10, "max_ns": 10,
            "buckets": {"1024": 1},
        }
        b["durations"]["d"] = {
            "count": 2, "total_ns": 30, "min_ns": 5, "max_ns": 25,
            "buckets": {"1024": 1, "32768": 1},
        }
        d = merge(a, b)["durations"]["d"]
        assert d == {
            "count": 3, "total_ns": 40, "min_ns": 5, "max_ns": 25,
            "buckets": {"1024": 2, "32768": 1},
        }

    def test_validate_rejects_malformed(self):
        good = empty_snapshot()
        validate_snapshot(good)
        for breakage in (
            lambda s: s.pop("counters"),
            lambda s: s.__setitem__("schema", SNAPSHOT_SCHEMA + 1),
            lambda s: s["counters"].__setitem__("a", 1.5),
            lambda s: s["counters"].__setitem__("a", True),
            lambda s: s["gauges"].__setitem__("g", "high"),
            lambda s: s.__setitem__("pid", "p1"),
            lambda s: s["durations"].__setitem__("d", {"count": 1}),
            lambda s: s["durations"].__setitem__("d", {
                "count": 1, "total_ns": 1, "min_ns": 1, "max_ns": 1,
                "buckets": {"1024": 1.5},
            }),
        ):
            snap = json.loads(json.dumps(empty_snapshot()))
            breakage(snap)
            with pytest.raises(ConfigurationError):
                validate_snapshot(snap)
        with pytest.raises(ConfigurationError):
            validate_snapshot([])


def _tiny_grid():
    return scenario_grid(
        tasks=("mnist",),
        runtimes=("TAILS", "ACE+FLEX"),
        traces=(TraceSpec("square", 5e-3, 0.05, 0.3),),
        caps_uf=(100.0, 220.0),
        n_samples=2,
    )


def _fleet_snapshot(workers):
    obs.reset()
    obs.enable()
    report = FleetRunner(workers=workers, engine="fast").run(_tiny_grid())
    snap = obs.snapshot()
    obs.reset()
    obs.disable()
    return report, snap


class TestFleetObs:
    def test_parallel_snapshot_totals_equal_serial(self):
        """Worker snapshots merge into exactly the serial totals.

        Simulation-event counters (machine.*, session.*) are pure
        functions of the scenario grid, so their totals must be equal
        bit for bit.  Cache hit/miss *splits* depend on the process
        topology (each worker builds its own plans), so those compare
        as hits+misses sums where the sum is topology-free.
        """
        serial_report, serial = _fleet_snapshot(workers=1)
        parallel_report, parallel = _fleet_snapshot(workers=2)

        sim_keys = {
            k for k in set(serial["counters"]) | set(parallel["counters"])
            if k.startswith(("machine.", "session.")) or k == "fleet.scenarios"
        }
        assert sim_keys, "instrumentation recorded no simulation events"
        for key in sim_keys:
            assert serial["counters"].get(key, 0) == \
                parallel["counters"].get(key, 0), key

        # Every scenario was spanned exactly once in both topologies.
        assert (serial["durations"]["span.fleet.scenario"]["count"]
                == parallel["durations"]["span.fleet.scenario"]["count"]
                == len(_tiny_grid()))

        # The parallel run saw more than one worker pid contribute.
        assert parallel["counters"]["fleet.scenarios"] == len(_tiny_grid())

        # And the results themselves are bit-identical (the existing
        # fleet determinism contract, re-checked under observability).
        for a, b in zip(serial_report.results, parallel_report.results):
            for ra, rb in zip(a.stats.results, b.stats.results):
                assert ra.wall_time_s == rb.wall_time_s
                assert ra.energy_j == rb.energy_j
                if ra.logits is not None:
                    assert np.array_equal(ra.logits, rb.logits)

    def test_fleet_results_identical_with_obs_on_and_off(self):
        grid = _tiny_grid()
        obs.disable()
        off = FleetRunner(workers=2, engine="fast").run(grid)
        obs.enable()
        try:
            on = FleetRunner(workers=2, engine="fast").run(grid)
        finally:
            obs.reset()
            obs.disable()
        for a, b in zip(off.results, on.results):
            for ra, rb in zip(a.stats.results, b.stats.results):
                assert ra.completed == rb.completed
                assert ra.wall_time_s == rb.wall_time_s
                assert ra.energy_j == rb.energy_j
                assert ra.reboots == rb.reboots
                if ra.logits is None:
                    assert rb.logits is None
                else:
                    assert np.array_equal(ra.logits, rb.logits)


@pytest.fixture(scope="module")
def mnist_setup():
    from repro.experiments.common import make_dataset, prepare_quantized

    qmodel = prepare_quantized("mnist", seed=0)
    x = make_dataset("mnist", 16, seed=1).x[:3]
    return qmodel, x


def _session_results(qmodel, x, engine, harvested):
    from repro.experiments.common import paper_harvester
    from repro.flex import FlexRuntime
    from repro.hw.board import msp430fr5994
    from repro.power import VoltageMonitor
    from repro.sim.session import SensingSession

    supply = paper_harvester() if harvested else None
    device = msp430fr5994(supply=supply)
    runtime = FlexRuntime(qmodel)
    monitor = VoltageMonitor(supply) if harvested else None
    session = SensingSession(device, runtime, monitor=monitor, engine=engine)
    stats = session.run(x)
    return [
        (
            r.completed,
            None if r.logits is None else r.logits.tobytes(),
            r.wall_time_s,
            r.active_time_s,
            r.charge_time_s,
            r.energy_j,
            tuple(sorted(r.energy_by_component.items())),
            r.checkpoint_energy_j,
            r.reboots,
            r.executed_cycles,
            r.dnf_reason,
        )
        for r in stats.results
    ]


class TestBitIdentity:
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize("harvested", [True, False])
    def test_outputs_identical_obs_on_vs_off(
        self, mnist_setup, engine, harvested
    ):
        """Observability must never touch a simulated number."""
        qmodel, x = mnist_setup
        obs.disable()
        off = _session_results(qmodel, x, engine, harvested)
        obs.enable()
        try:
            on = _session_results(qmodel, x, engine, harvested)
        finally:
            obs.reset()
            obs.disable()
        assert on == off

    def test_machine_events_recorded_when_harvested(self, mnist_setup):
        qmodel, x = mnist_setup
        obs.enable()
        _session_results(qmodel, x, "fast", True)
        snap = obs.snapshot()
        assert snap["counters"]["machine.runs"] == len(x)
        assert snap["counters"].get("machine.brownouts", 0) > 0
        assert snap["counters"].get("machine.restores", 0) > 0
        assert "span.session.sense" in snap["durations"]
        assert "span.sim.replay" in snap["durations"]

    def test_fast_and_reference_count_same_machine_events(self, mnist_setup):
        qmodel, x = mnist_setup

        def counters(engine):
            obs.reset()
            obs.enable()
            _session_results(qmodel, x, engine, True)
            snap = obs.snapshot()
            obs.reset()
            obs.disable()
            return {
                k: v for k, v in snap["counters"].items()
                if k.startswith("machine.")
            }

        assert counters("fast") == counters("reference")


class TestStudyRunObs:
    def test_obs_attached_when_enabled(self):
        from repro.study import run_study

        obs.enable()
        run = run_study("fig8", engine="fast")
        assert run.obs is not None
        validate_snapshot(run.obs)
        assert run.obs["counters"]["machine.runs"] > 0

    def test_obs_none_when_disabled(self):
        from repro.study import run_study

        run = run_study("fig8", engine="fast")
        assert run.obs is None


class TestCli:
    def test_run_metrics_and_trace_artifacts(self, tmp_path, capsys):
        m = tmp_path / "m.json"
        t = tmp_path / "t.json"
        assert main(["run", "fig8", "--engine", "fast",
                     "--metrics", str(m), "--trace", str(t)]) == 0
        snap = json.loads(m.read_text())
        validate_snapshot(snap)
        assert snap["counters"]["machine.runs"] > 0
        assert "span.kernels.plan_build" in snap["durations"]
        trace = json.loads(t.read_text())
        assert trace["traceEvents"], "trace exported no events"
        assert not (tmp_path / "m.json.tmp").exists()
        # The run leaves the process observability-off (no state leak).
        assert not obs.enabled()

    def test_stats_renders_snapshot(self, tmp_path, capsys, monkeypatch):
        from repro.sim import fastsim

        # An empty program cache: the process-wide one shares fig8's
        # programs from any earlier run, and this run must compile.
        monkeypatch.setattr(fastsim, "PROGRAM_CACHE", fastsim.ProgramCache())
        m = tmp_path / "m.json"
        assert main(["run", "fig8", "--engine", "fast",
                     "--metrics", str(m)]) == 0
        capsys.readouterr()
        assert main(["stats", str(m)]) == 0
        out = capsys.readouterr().out
        assert "machine.runs" in out
        assert "span.sim.program.compile" in out

    def test_stats_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["stats", str(bad)]) == 1
        bad.write_text('{"schema": 999}')
        assert main(["stats", str(bad)]) == 1

    def test_bench_report(self, tmp_path, capsys):
        (tmp_path / "BENCH_demo.json").write_text(json.dumps({
            "bench": "demo", "schema": 1, "created_unix": 0,
            "python": "3.12", "numpy": "2.0", "smoke": False,
            "cases": {
                "fast_case": {"median_s": 0.001,
                              "reference_median_s": 0.003,
                              "speedup_vs_reference": 3.0},
                "sim_case": {"sim_wall_s": 5.5, "completed": 5.0},
            },
        }))
        assert main(["bench", "report", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fast_case" in out and "3.00x" in out
        assert "sim_wall_s=5.5" in out

    def test_bench_report_empty_dir_fails(self, tmp_path, capsys):
        assert main(["bench", "report", "--dir", str(tmp_path)]) == 1
