"""Tests for the unified study API: ResultTable, the registry, and the
fleet-executed study path (including the fast-engine identity contract)."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fleet import FleetReport, Scenario, ScenarioResult, TraceSpec
from repro.sim.results import RunResult
from repro.sim.session import SessionStats
from repro.study import (
    Column,
    Profile,
    ResultTable,
    Study,
    StudyContext,
    get_study,
    run_study,
    study_names,
)

SCHEMA = (
    ("name", "str"),
    ("count", "int"),
    ("score", "float"),
    ("ok", "bool"),
)


def _sample_table():
    t = ResultTable(SCHEMA, meta={"study": "demo"})
    t.append(name="a", count=3, score=0.125, ok=True)
    t.append(name="b", count=5, score=2.5e-7, ok=False)
    t.append(name="a", count=1, score=float("nan"), ok=True)
    return t


class TestResultTableSchema:
    def test_schema_and_len(self):
        t = _sample_table()
        assert t.column_names == ("name", "count", "score", "ok")
        assert [c.dtype for c in t.schema] == ["str", "int", "float", "bool"]
        assert len(t) == 3

    def test_rejects_bad_schema(self):
        with pytest.raises(ConfigurationError):
            ResultTable(())
        with pytest.raises(ConfigurationError):
            ResultTable((("a", "int"), ("a", "float")))
        with pytest.raises(ConfigurationError):
            ResultTable((("a", "complex"),))
        with pytest.raises(ConfigurationError):
            Column("", "int")

    def test_append_validates_keys(self):
        t = ResultTable(SCHEMA)
        with pytest.raises(ConfigurationError, match="missing"):
            t.append(name="a", count=1, score=1.0)
        with pytest.raises(ConfigurationError, match="unexpected"):
            t.append(name="a", count=1, score=1.0, ok=True, extra=2)

    def test_append_validates_types(self):
        t = ResultTable(SCHEMA)
        with pytest.raises(ConfigurationError):
            t.append(name=3, count=1, score=1.0, ok=True)
        with pytest.raises(ConfigurationError):
            t.append(name="a", count=1.5, score=1.0, ok=True)
        with pytest.raises(ConfigurationError):
            t.append(name="a", count=1, score="x", ok=True)
        with pytest.raises(ConfigurationError):
            t.append(name="a", count=1, score=1.0, ok=1)
        # bool is not an int, whatever Python says
        with pytest.raises(ConfigurationError):
            t.append(name="a", count=True, score=1.0, ok=True)

    def test_numpy_scalars_coerce(self):
        t = ResultTable(SCHEMA)
        t.append(name="n", count=np.int64(4), score=np.float64(0.5),
                 ok=np.bool_(True))
        row = t.row(0)
        assert row["count"] == 4 and type(row["count"]) is int
        assert row["score"] == 0.5 and type(row["score"]) is float
        assert row["ok"] is True

    def test_int_promotes_to_float_column(self):
        t = ResultTable((("x", "float"),))
        t.append(x=2)
        assert t.row(0)["x"] == 2.0 and type(t.row(0)["x"]) is float

    def test_meta_must_be_str_str(self):
        with pytest.raises(ConfigurationError):
            ResultTable(SCHEMA, meta={"n": 3})


class TestResultTableAggregation:
    def test_filter_and_column(self):
        t = _sample_table()
        ok = t.filter(lambda r: r["ok"])
        assert len(ok) == 2
        assert ok.column("name") == ["a", "a"]
        assert ok.meta == t.meta  # meta travels

    def test_group_by_single_and_multi(self):
        t = _sample_table()
        by_name = t.group_by("name")
        assert list(by_name) == ["a", "b"]  # first-seen order
        assert len(by_name["a"]) == 2
        by_pair = t.group_by("name", "ok")
        assert ("a", True) in by_pair

    def test_percentile_and_mean(self):
        t = ResultTable((("v", "float"),))
        for v in (1.0, 2.0, 3.0, 4.0):
            t.append(v=v)
        assert t.percentile("v", 50) == pytest.approx(2.5)
        assert t.mean("v") == pytest.approx(2.5)
        empty = t.filter(lambda r: False)
        assert empty.percentile("v", 50) == 0.0
        assert empty.mean("v") == 0.0

    def test_percentile_rejects_string_columns(self):
        t = _sample_table()
        with pytest.raises(ConfigurationError):
            t.percentile("name", 50)
        with pytest.raises(ConfigurationError):
            t.percentile("missing", 50)


class TestResultTableRoundTrip:
    def test_json_round_trip_is_exact(self):
        t = _sample_table()
        back = ResultTable.from_json(t.to_json())
        assert back == t
        assert back.to_json() == t.to_json()
        # spot-check bits, not approx
        assert back.row(1)["score"] == 2.5e-7
        assert math.isnan(back.row(2)["score"])

    def test_json_preserves_awkward_floats(self):
        t = ResultTable((("v", "float"),))
        for v in (0.1, 1.0 / 3.0, 1e-300, float("inf"), -0.0, 6.02214076e23):
            t.append(v=v)
        back = ResultTable.from_json(t.to_json())
        for a, b in zip(back.column("v"), t.column("v")):
            assert a == b and math.copysign(1.0, a) == math.copysign(1.0, b)

    def test_npz_round_trip_is_exact(self, tmp_path):
        t = _sample_table()
        path = str(tmp_path / "t.npz")
        t.to_npz(path)
        back = ResultTable.from_npz(path)
        assert back == t

    def test_empty_table_round_trips(self, tmp_path):
        t = ResultTable(SCHEMA, meta={"study": "empty"})
        assert ResultTable.from_json(t.to_json()) == t
        path = str(tmp_path / "e.npz")
        t.to_npz(path)
        assert ResultTable.from_npz(path) == t

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            ResultTable.from_json("not json")
        with pytest.raises(ConfigurationError):
            ResultTable.from_json('{"rows": []}')
        with pytest.raises(ConfigurationError):
            ResultTable.from_json(
                '{"schema": [["a", "int"]], "rows": [[1, 2]]}')

    def test_render_right_aligns_numbers(self):
        t = ResultTable((("name", "str"), ("n", "int")))
        t.append(name="x", n=1)
        t.append(name="longer", n=12345)
        lines = t.render().splitlines()
        # numeric column right-aligned: the short value ends each line
        assert lines[-2].endswith("    1")
        assert lines[-1].endswith("12345")


class TestStudyRegistry:
    def test_all_artifacts_registered(self):
        names = study_names()
        for expected in ("table1", "table2", "fig7", "fig8", "overhead",
                         "ablation-overflow", "ablation-buffers",
                         "ablation-dma", "ablation-vwarn",
                         "ablation-compression", "sweep-capacitor",
                         "sweep-power", "sweep-trace", "fleet"):
            assert expected in names

    def test_cli_artifact_subcommands_resolve_to_studies(self):
        """Acceptance: every paper artifact and extension is one registered
        study, reachable as 'repro run <study>'."""
        from repro.cli import build_parser

        artifacts = ("table1", "table2", "fig7", "fig8", "overhead",
                     "ablation-overflow", "ablation-buffers", "ablation-dma",
                     "sweep-capacitor", "sweep-power", "sweep-trace", "fleet")
        assert set(artifacts) <= set(study_names())
        for name in study_names():
            args = build_parser().parse_args(["run", name])
            assert get_study(args.study).name == name

    def test_unknown_study(self):
        with pytest.raises(ConfigurationError, match="unknown study"):
            get_study("nope")

    def test_study_spec_validation(self):
        with pytest.raises(ConfigurationError):
            Study(name="x", title="t")  # neither run nor scenarios
        with pytest.raises(ConfigurationError):
            Study(name="x", title="t", run=lambda ctx: None,
                  scenarios=lambda ctx: [])  # both
        with pytest.raises(ConfigurationError):
            Study(name="x", title="t",
                  scenarios=lambda ctx: [], render=lambda t: "")  # no collect

    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            Profile(tasks=("imagenet",))
        with pytest.raises(ConfigurationError):
            Profile(tasks=())
        with pytest.raises(ConfigurationError):
            Profile(samples=0)
        assert StudyContext(Profile()).tasks(("mnist",)) == ("mnist",)
        assert StudyContext(Profile(tasks=("har",))).tasks(("mnist",)) == \
            ("har",)

    def test_run_study_rejects_unknown_engine(self):
        with pytest.raises(ConfigurationError):
            run_study("table1", engine="warp")

    def test_run_study_rejects_unused_profile_fields(self):
        """Options outside Study.params are rejected, not dropped."""
        with pytest.raises(ConfigurationError, match="does not use 'tasks'"):
            run_study("fig8", profile=Profile(tasks=("har",)))
        with pytest.raises(ConfigurationError, match="does not use 'seed'"):
            run_study("table1", profile=Profile(seed=7))
        with pytest.raises(ConfigurationError, match="does not use 'samples'"):
            run_study("fig7", profile=Profile(samples=8))

    def test_run_study_rejects_fleet_flags_on_direct_studies(self):
        with pytest.raises(ConfigurationError, match="--workers"):
            run_study("table1", workers=2)
        with pytest.raises(ConfigurationError, match="--serial"):
            run_study("table1", parallel=False)
        with pytest.raises(ConfigurationError, match="engine"):
            run_study("table1", engine="fast")

    def test_single_task_studies_reject_task_lists(self):
        with pytest.raises(ConfigurationError, match="exactly one task"):
            run_study("sweep-trace", profile=Profile(tasks=("mnist", "har")))
        with pytest.raises(ConfigurationError, match="exactly one task"):
            run_study("ablation-overflow",
                      profile=Profile(tasks=("mnist", "har")))

    def test_study_rejects_unknown_params_field(self):
        with pytest.raises(ConfigurationError, match="unknown profile field"):
            Study(name="x", title="t", params=("bogus",),
                  run=lambda ctx: None, render=lambda t: "")


class TestMainsTraceKind:
    def test_mains_has_no_trace(self):
        spec = TraceSpec("mains")
        assert spec.label() == "mains"
        with pytest.raises(ConfigurationError):
            spec.build()

    def test_mains_scenario_has_no_harvester(self):
        s = Scenario(name="x/continuous/ACE", trace=TraceSpec("mains"))
        assert s.build_harvester() is None

    def test_mains_rejects_power_and_ignored_fields(self):
        with pytest.raises(ConfigurationError, match="unlimited"):
            TraceSpec("mains", 5e-3)
        with pytest.raises(ConfigurationError, match="period_s"):
            TraceSpec("mains", period_s=0.1)
        with pytest.raises(ConfigurationError, match="seed"):
            TraceSpec("mains", seed=1)

    def test_mains_scenario_rejects_swept_capacitor(self):
        """A capacitor axis crossed with a mains regime would collapse
        into identical cells under distinct names — rejected."""
        with pytest.raises(ConfigurationError, match="no capacitor"):
            Scenario(name="x", trace=TraceSpec("mains"), cap_uf=47.0)
        Scenario(name="x", trace=TraceSpec("mains"), cap_uf=100.0)  # default


def _synthetic_fleet_report():
    def result(runtime, completed, wall, energy, reboots):
        return RunResult(runtime=runtime, completed=completed,
                         predicted_class=0 if completed else None,
                         wall_time_s=wall, energy_j=energy, reboots=reboots)

    ok = SessionStats(runtime="ACE+FLEX", results=[
        result("ACE+FLEX", True, 1.0, 1e-3, 1),
        result("ACE+FLEX", True, 1.0, 1e-3, 1),
    ])
    half = SessionStats(runtime="SONIC", results=[
        result("SONIC", True, 4.0, 8e-3, 9),
        result("SONIC", False, 2.0, 2e-3, 6),
    ])
    return FleetReport(results=[
        ScenarioResult(Scenario(name="a", runtime="ACE+FLEX", n_samples=2),
                       ok, labels=(0, 1)),
        ScenarioResult(Scenario(name="b", runtime="SONIC", n_samples=2),
                       half, labels=(0, 1)),
    ], workers=2, wall_s=0.5, unique_models=1)


class TestFleetReportTables:
    def test_scenario_table_schema_and_values(self):
        table = _synthetic_fleet_report().scenario_table()
        assert len(table) == 2
        row = table.row(0)
        assert row["scenario"] == "a"
        assert row["runtime"] == "ACE+FLEX"
        assert row["inferences"] == 2 and row["completed"] == 2
        assert row["energy_mj"] == pytest.approx(2.0)
        assert table.meta["workers"] == "2"

    def test_runtime_table_matches_aggregate(self):
        """The table-based aggregation must agree bit-for-bit with a
        direct aggregation over the live per-scenario session stats."""
        from repro.study.table import percentile

        report = _synthetic_fleet_report()
        derived = {r["runtime"]: r
                   for r in FleetReport.runtime_table(report.scenario_table())}
        for runtime, results in report.by_runtime().items():
            stats = [r.stats for r in results]
            done = [s for s in stats if s.completed]
            inferences = sum(s.inferences for s in stats)
            completed = sum(s.completed for s in stats)
            got = derived[runtime]
            assert got["scenarios"] == len(results)
            assert got["dnf_rate"] == 1.0 - completed / inferences
            assert got["throughput_hz_p50"] == \
                percentile([s.throughput_hz for s in stats], 50)
            assert got["mj_per_inf_p50"] == percentile(
                [s.total_energy_j * 1e3 / s.completed for s in done], 50)
            assert got["reboots_per_inf_p50"] == percentile(
                [s.total_reboots / s.completed for s in done], 50)

    def test_runtime_table_survives_serialization(self):
        """Aggregating a table loaded from JSON equals aggregating live."""
        report = _synthetic_fleet_report()
        live = FleetReport.runtime_table(report.scenario_table())
        loaded = FleetReport.runtime_table(
            ResultTable.from_json(report.scenario_table().to_json()))
        assert live == loaded


class TestScenarioStudies:
    def test_fig7_scenarios_shape(self):
        study = get_study("fig7")
        ctx = StudyContext(Profile())
        scenarios = study.scenarios(ctx)
        assert len(scenarios) == 30  # 3 tasks x 2 regimes x 5 runtimes
        names = [s.name for s in scenarios]
        assert len(set(names)) == 30
        assert sum(1 for s in scenarios
                   if s.trace.kind == "mains") == 15
        # one model per task: the fleet cache pays 3 preparations
        assert len({s.model_key for s in scenarios}) == 3

    def test_sweep_scenarios_shape(self):
        ctx = StudyContext(Profile())
        caps = get_study("sweep-capacitor").scenarios(ctx)
        assert len(caps) == 25  # 5 capacitors x 5 runtimes
        assert len({s.cap_uf for s in caps}) == 5
        powers = get_study("sweep-power").scenarios(ctx)
        assert len({s.trace.power_w for s in powers}) == 5
        traces = get_study("sweep-trace").scenarios(ctx)
        assert [s.trace.kind for s in traces] == ["square", "rf", "solar"]

    def test_fleet_study_scenarios_match_default_grid(self):
        from repro.fleet import default_grid

        ctx = StudyContext(Profile(samples=2))
        assert get_study("fleet").scenarios(ctx) == \
            default_grid(tasks=("mnist",), n_samples=2)

    def test_fig7_fast_engine_bit_identical(self):
        """Acceptance: `repro run fig7 --engine fast` output is
        bit-identical to the reference engine (table, JSON, and render)."""
        profile = Profile(tasks=("mnist",))
        reference = run_study("fig7", engine="reference", workers=1,
                              profile=profile)
        fast = run_study("fig7", engine="fast", workers=1, profile=profile)
        assert fast.table == reference.table
        assert fast.table.to_json() == reference.table.to_json()
        assert fast.render() == reference.render()
        # the study actually went through the fleet
        assert fast.report is not None and len(fast.report) == 10
        assert fast.cache.misses == 1  # one model, shared across 10 cells

    ENGINE_STUDIES = [n for n in study_names()
                      if get_study(n).fleet_executed
                      or get_study(n).engine_aware]

    def test_engine_studies_are_the_expected_set(self):
        assert set(self.ENGINE_STUDIES) == {
            "fig7", "fig8", "overhead", "sweep-capacitor", "sweep-power",
            "sweep-trace", "fleet"}

    @pytest.mark.parametrize(
        "name", [n for n in ENGINE_STUDIES if n != "fig7"])
    def test_fast_engine_bit_identical_per_study(self, name):
        """Whole-study engine identity beyond fig7 (above): every study
        the fast engine can run produces the reference's table."""
        study = get_study(name)
        small = {"tasks": ("mnist",), "samples": 1}
        profile = Profile(**{k: v for k, v in small.items()
                             if k in study.params})
        options = {"parallel": False} if study.fleet_executed else {}
        reference = run_study(name, engine="reference", profile=profile,
                              **options)
        fast = run_study(name, engine="fast", profile=profile, **options)
        assert fast.table.to_json() == reference.table.to_json()
        assert fast.render() == reference.render()

    def test_fig7_render_marks_dnf(self):
        table = ResultTable(
            [(n, d) for n, d in get_study("fig7").collect.__globals__
             ["_FIG7_COLUMNS"]])
        zero = {c.name: 0.0 for c in table.schema if c.dtype == "float"}
        table.append(task="mnist", regime="intermittent", runtime="BASE",
                     completed=False, reboots=7, **zero)
        table.append(task="mnist", regime="intermittent", runtime="ACE+FLEX",
                     completed=True, reboots=1,
                     **{**zero, "wall_ms": 10.0, "active_ms": 5.0})
        text = get_study("fig7").render(table)
        assert "DNF (X)" in text

    def test_overhead_study_end_to_end(self):
        run = run_study("overhead", engine="fast", workers=1,
                        profile=Profile(tasks=("mnist",)))
        row = run.table.row(0)
        assert row["completed"]
        assert row["worst_ckpt_mj"] <= 0.033
        assert 0.0 < row["total_overhead"] < 0.10
        text = run.render()
        assert "MNIST" in text and "Paper bound" in text
