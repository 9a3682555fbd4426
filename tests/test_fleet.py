"""Tests for the fleet-scale scenario engine."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.fleet import (
    FleetReport,
    FleetRunner,
    ModelCache,
    Scenario,
    ScenarioResult,
    TraceSpec,
    corpus_traces,
    default_grid,
    scenario_grid,
    scenario_seed,
)
from repro.fleet.report import render_scenario_table
from repro.fleet.runner import _InputStreams, execute_scenario
from repro.power import (
    ConstantTrace,
    SolarTrace,
    SquareWaveTrace,
    StochasticRFTrace,
)
from repro.sim.results import RunResult
from repro.sim.session import SessionStats


class TestTraceSpec:
    def test_build_types(self):
        assert isinstance(TraceSpec("constant", 1e-3).build(), ConstantTrace)
        assert isinstance(TraceSpec("square", 5e-3).build(), SquareWaveTrace)
        assert isinstance(TraceSpec("rf", 1e-3).build(), StochasticRFTrace)
        assert isinstance(TraceSpec("solar", 5e-3, 1.0).build(), SolarTrace)

    def test_rejects_bad_specs(self):
        with pytest.raises(ConfigurationError):
            TraceSpec("laser", 1e-3)
        with pytest.raises(ConfigurationError):
            TraceSpec("square", -1.0)
        with pytest.raises(ConfigurationError):
            TraceSpec("square", 1e-3, duty=0.0)

    def test_label(self):
        assert TraceSpec("square", 5e-3).label() == "square@5mW"

    def test_label_distinguishes_nondefault_axes(self):
        """Sweeping period, duty, or RF seed must not collide names."""
        specs = (
            TraceSpec("rf", 1e-3, seed=1),
            TraceSpec("rf", 1e-3, seed=2),
            TraceSpec("square", 1e-3, period_s=0.1),
            TraceSpec("square", 1e-3, duty=0.5),
        )
        labels = [s.label() for s in specs]
        assert len(set(labels)) == len(labels)
        grid = scenario_grid(runtimes=("ACE+FLEX",), traces=specs[:2])
        assert len({s.name for s in grid}) == 2

    def test_rf_rejects_full_duty(self):
        with pytest.raises(ConfigurationError):
            TraceSpec("rf", 1e-3, duty=1.0)
        TraceSpec("square", 1e-3, duty=1.0)  # fine for deterministic kinds

    def test_rf_seed_travels_with_spec(self):
        a = TraceSpec("rf", 1e-3, seed=1).build()
        b = TraceSpec("rf", 1e-3, seed=1).build()
        c = TraceSpec("rf", 1e-3, seed=2).build()
        assert a.energy(0.0, 0.5) == b.energy(0.0, 0.5)
        assert a.energy(0.0, 0.5) != c.energy(0.0, 0.5)

    def test_rejects_parameters_the_kind_ignores(self):
        """A non-default value for an uninterpreted field is a spec bug:
        sweeping it would silently collapse grid cells into duplicates
        (e.g. ten 'square' seeds = ten identical supplies)."""
        with pytest.raises(ConfigurationError, match="seed"):
            TraceSpec("square", 1e-3, seed=5)
        with pytest.raises(ConfigurationError, match="period_s"):
            TraceSpec("constant", 1e-3, period_s=0.1)
        with pytest.raises(ConfigurationError, match="duty"):
            TraceSpec("constant", 1e-3, duty=0.5)
        with pytest.raises(ConfigurationError, match="seed"):
            TraceSpec("constant", 1e-3, seed=1)
        with pytest.raises(ConfigurationError, match="duty"):
            TraceSpec("solar", 1e-3, period_s=1.0, duty=0.5)
        with pytest.raises(ConfigurationError, match="seed"):
            TraceSpec("solar", 1e-3, period_s=1.0, seed=3)
        with pytest.raises(ConfigurationError, match="corpus"):
            TraceSpec("square", 1e-3, corpus="rf-markov")
        with pytest.raises(ConfigurationError, match="period_s"):
            TraceSpec("corpus", 1e-3, corpus="rf-markov", period_s=0.1)
        # Defaults (and genuinely-used fields) stay accepted.
        TraceSpec("constant", 1e-3)
        TraceSpec("rf", 1e-3, period_s=0.1, duty=0.5, seed=9)
        TraceSpec("corpus", 0.0, corpus="rf-markov", seed=9)


class TestScenario:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="x", n_samples=0)
        with pytest.raises(ConfigurationError):
            Scenario(name="x", cap_uf=0.0)

    def test_model_key_ignores_supply(self):
        a = Scenario(name="a", trace=TraceSpec("square", 5e-3), cap_uf=47.0)
        b = Scenario(name="b", trace=TraceSpec("solar", 5e-3, 1.0), cap_uf=330.0)
        assert a.model_key == b.model_key
        c = Scenario(name="c", model_seed=7)
        assert c.model_key != a.model_key

    def test_dataset_key_is_the_draw_arguments(self):
        a = Scenario(name="a", task="har", n_samples=4, seed=9)
        assert a.dataset_key == ("har", 16, 9)
        assert Scenario(name="b", n_samples=40, seed=2).dataset_key == \
            ("mnist", 40, 2)
        # Supply, capacitor, runtime and model fields leave it alone.
        c = Scenario(name="c", task="har", n_samples=16, seed=9,
                     runtime="TAILS", cap_uf=470.0, model_seed=3,
                     trace=TraceSpec("solar", 5e-3, 1.0))
        assert c.dataset_key == a.dataset_key


class TestGrid:
    def test_seed_is_order_independent(self):
        assert scenario_seed("a/b/c") == scenario_seed("a/b/c")
        assert scenario_seed("a/b/c") != scenario_seed("a/b/d")
        assert scenario_seed("a/b/c", 1) != scenario_seed("a/b/c", 2)

    def test_seed_valid_for_any_base_seed(self):
        """Negative CLI seeds must still yield valid numpy seeds."""
        for base in (-1, -12345, 0, 2**40):
            seed = scenario_seed("a/b/c", base)
            assert 0 <= seed < 2**32
            np.random.default_rng(seed)

    def test_grid_shape_and_names(self):
        grid = scenario_grid(
            tasks=("mnist", "har"),
            runtimes=("TAILS", "ACE+FLEX"),
            traces=(TraceSpec("square", 5e-3),),
            caps_uf=(47.0, 100.0),
        )
        assert len(grid) == 8
        names = [s.name for s in grid]
        assert len(set(names)) == 8
        assert "mnist/square@5mW/47uF/TAILS" in names

    def test_one_model_key_per_task(self):
        grid = default_grid()
        assert len(grid) >= 12
        assert len({s.model_key for s in grid}) == 1

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario_grid(tasks=())


class TestModelCache:
    def test_hit_and_miss_accounting(self):
        cache = ModelCache()
        a = Scenario(name="a", task="mnist", calib_n=4)
        b = Scenario(name="b", task="mnist", calib_n=4,
                     trace=TraceSpec("solar", 5e-3, 1.0))
        m1 = cache.get(a)
        assert (cache.hits, cache.misses, len(cache)) == (0, 1, 1)
        m2 = cache.get(b)  # different supply, same model
        assert m2 is m1
        assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)
        c = Scenario(name="c", task="mnist", calib_n=4, model_seed=3)
        m3 = cache.get(c)
        assert m3 is not m1
        assert (cache.hits, cache.misses, len(cache)) == (1, 2, 2)

    def test_runner_prepares_each_model_once(self):
        grid = scenario_grid(
            tasks=("mnist",),
            runtimes=("ACE", "ACE+FLEX"),
            traces=(TraceSpec("constant", 40e-3),),
            caps_uf=(100.0, 220.0),
            n_samples=1,
        )
        runner = FleetRunner(workers=1)
        report = runner.run(grid)
        assert runner.cache.misses == 1
        assert runner.cache.hits == len(grid) - 1
        assert report.unique_models == 1


def _small_grid(n_samples=2):
    return scenario_grid(
        tasks=("mnist",),
        runtimes=("TAILS", "ACE+FLEX"),
        traces=(TraceSpec("square", 5e-3, 0.05, 0.3),),
        caps_uf=(100.0, 220.0),
        n_samples=n_samples,
    )


def _assert_results_identical(a, b):
    """Two scenario results agree down to the logits bits."""
    assert a.scenario == b.scenario
    assert a.error == b.error
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


class TestRunner:
    def test_parallel_identical_to_serial(self):
        """The engine's determinism contract, down to the logits bits."""
        grid = _small_grid()
        serial = FleetRunner(workers=1).run(grid)
        parallel = FleetRunner(workers=2).run(grid)
        assert serial.workers == 1 and parallel.workers == 2
        assert [r.scenario for r in serial.results] == grid
        for a, b in zip(serial.results, parallel.results):
            _assert_results_identical(a, b)

    def test_parallel_false_forces_serial(self):
        grid = _small_grid(n_samples=1)[:2]
        report = FleetRunner(workers=4, parallel=False).run(grid)
        assert report.workers == 1

    def test_rejects_empty_and_duplicate_names(self):
        runner = FleetRunner(workers=1)
        with pytest.raises(ConfigurationError):
            runner.run([])
        s = Scenario(name="dup", n_samples=1)
        with pytest.raises(ConfigurationError):
            runner.run([s, s])

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ConfigurationError):
            FleetRunner(workers=0)

    def test_rejects_unknown_engine(self):
        with pytest.raises(ConfigurationError):
            FleetRunner(workers=1, engine="warp")

    def test_fast_engine_identical_to_reference(self):
        """The fast engine's bit-identity contract holds fleet-wide."""
        grid = _small_grid()
        cache = ModelCache()
        reference = FleetRunner(workers=1, cache=cache).run(grid)
        fast = FleetRunner(workers=1, cache=cache, engine="fast").run(grid)
        for a, b in zip(reference.results, fast.results):
            assert a.scenario == b.scenario
            assert a.labels == b.labels
            assert a.overflow_events == b.overflow_events
            assert len(a.stats.results) == len(b.stats.results)
            for ra, rb in zip(a.stats.results, b.stats.results):
                assert ra.completed == rb.completed
                assert ra.wall_time_s == rb.wall_time_s
                assert ra.energy_j == rb.energy_j
                assert ra.energy_by_component == rb.energy_by_component
                assert ra.reboots == rb.reboots
                assert ra.predicted_class == rb.predicted_class
                if ra.logits is None:
                    assert rb.logits is None
                else:
                    assert np.array_equal(ra.logits, rb.logits)
        # Identical numbers render identical tables (timing metadata aside).
        assert render_scenario_table(reference.scenario_table()) == \
            render_scenario_table(fast.scenario_table())

    def test_corpus_grid_fast_identical_to_reference(self):
        """The acceptance bar for corpus supplies: a grid over >= 4
        corpus entries is bit-identical between the engines (and the
        supplies are genuinely distinct cells, not collapsed duplicates)."""
        grid = scenario_grid(
            tasks=("mnist",),
            runtimes=("TAILS",),
            traces=corpus_traces(
                ("rf-markov", "solar-cloudy", "kinetic-walk", "wifi-office"),
                power_w=2e-3,
            ),
            caps_uf=(100.0,),
            n_samples=2,
        )
        assert len(grid) == 4
        cache = ModelCache()
        reference = FleetRunner(workers=1, cache=cache).run(grid)
        fast = FleetRunner(workers=1, cache=cache, engine="fast").run(grid)
        for a, b in zip(reference.results, fast.results):
            assert len(a.stats.results) == len(b.stats.results)
            for ra, rb in zip(a.stats.results, b.stats.results):
                assert ra.completed == rb.completed
                assert ra.wall_time_s == rb.wall_time_s
                assert ra.energy_j == rb.energy_j
                assert ra.energy_by_component == rb.energy_by_component
                assert ra.reboots == rb.reboots
        # Different supplies produce different trajectories: no two
        # scenarios of this grid may agree on total wall time.
        walls = [sum(r.wall_time_s for r in res.stats.results)
                 for res in reference.results]
        assert len(set(walls)) == len(walls)


def _shared_stream_grid():
    """Eight cells over K = 2 input streams (seeds 1 and 2)."""
    return [
        Scenario(name=f"s{seed}/{cap:g}uF/{runtime}", runtime=runtime,
                 trace=TraceSpec("square", 5e-3, 0.05, 0.3), cap_uf=cap,
                 n_samples=2, seed=seed)
        for seed in (1, 2)
        for cap in (100.0, 220.0)
        for runtime in ("TAILS", "ACE+FLEX")
    ]


def _warm_cache(grid):
    """A model cache already holding ``grid``'s models, so the model
    preparation's own calibration draw is not counted below."""
    cache = ModelCache()
    for s in grid:
        cache.get(s)
    return cache


def _count_draws(monkeypatch, log=None):
    """Wrap ``make_dataset`` so each draw is recorded: its key in the
    returned list (this process only) and, when ``log`` is a path, a
    ``pid key`` line appended to that file (forked workers too)."""
    import repro.experiments.common as common

    real = common.make_dataset
    calls = []

    def counting(task, n_samples, seed=0, **kw):
        calls.append((task, n_samples, seed))
        if log is not None:
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {task} {n_samples} {seed}\n")
        return real(task, n_samples, seed=seed, **kw)

    monkeypatch.setattr(common, "make_dataset", counting)
    return calls


class TestSharedDatasets:
    """One fleet run draws each input stream once and shares it."""

    def test_serial_run_draws_each_key_once(self, monkeypatch):
        grid = _shared_stream_grid()
        keys = {s.dataset_key for s in grid}
        assert len(keys) == 2
        cache = _warm_cache(grid)
        calls = _count_draws(monkeypatch)
        FleetRunner(workers=1, cache=cache).run(grid)
        assert sorted(calls) == sorted(keys)

    def test_pooled_run_draws_at_most_k_per_worker(self, monkeypatch,
                                                   tmp_path):
        grid = _shared_stream_grid()
        keys = {s.dataset_key for s in grid}
        log = tmp_path / "draws.log"
        cache = _warm_cache(grid)
        calls = _count_draws(monkeypatch, log)
        report = FleetRunner(workers=2, cache=cache).run(grid)
        assert report.workers == 2 and report.failures == 0
        assert calls == []  # the parent draws nothing
        per_pid = {}
        lines = log.read_text().splitlines() if log.exists() else []
        for line in lines:
            pid, task, n, seed = line.split()
            per_pid.setdefault(pid, []).append((task, int(n), int(seed)))
        assert str(os.getpid()) not in per_pid
        if multiprocessing.get_start_method() == "fork":
            # Forked workers inherit the wrapper: every stream was drawn
            # somewhere, and no worker drew one twice.
            assert set().union(*per_pid.values()) == keys
        for drawn in per_pid.values():
            assert len(drawn) == len(set(drawn)) <= len(keys)
            assert set(drawn) <= keys

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shared_results_bit_equal_to_standalone(self, workers):
        grid = _shared_stream_grid()
        cache = ModelCache()
        report = FleetRunner(workers=workers, cache=cache).run(grid)
        for s, shared in zip(grid, report.results):
            alone = execute_scenario(s, cache.get(s))
            _assert_results_identical(shared, alone)

    def test_shared_stream_is_read_only_and_reused(self):
        scenario, twin = _shared_stream_grid()[:2]
        streams = _InputStreams([scenario, twin])
        ds = streams.get(scenario)
        assert streams.get(twin) is ds
        assert streams._drawn == {scenario.dataset_key: ds}
        with pytest.raises(ValueError):
            ds.x[0] = 0.0
        with pytest.raises(ValueError):
            ds.x[: scenario.n_samples][0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            ds.y[0] = 0

    def test_failed_draw_is_a_scenario_failure_and_not_kept(
            self, monkeypatch):
        import repro.experiments.common as common

        grid = _shared_stream_grid()
        real = common.make_dataset
        calls = []

        def flaky(task, n_samples, seed=0, **kw):
            calls.append(seed)
            if seed == 1:
                raise OSError("injected draw failure")
            return real(task, n_samples, seed=seed, **kw)

        cache = _warm_cache(grid)
        monkeypatch.setattr(common, "make_dataset", flaky)
        report = FleetRunner(workers=1, cache=cache).run(grid,
                                                         on_error="record")
        failed = [r for r in report.results if r.error]
        assert [r.scenario for r in failed] == \
            [s for s in grid if s.seed == 1]
        assert all("injected draw failure" in r.error for r in failed)
        # A failed draw stores nothing: each cell of that stream retries
        # it, while the healthy stream is drawn once.
        assert calls.count(1) == len(failed) == 4
        assert calls.count(2) == 1
        streams = _InputStreams(grid)
        with pytest.raises(OSError):
            streams.get(grid[0])
        assert streams._drawn == {}

    def test_telemetry_counts_draws_and_reuses(self):
        from repro import obs
        from repro.study import run_study

        obs.reset()
        obs.enable()
        try:
            run = run_study("fig7", engine="fast", parallel=False)
            counters = obs.snapshot()["counters"]
        finally:
            obs.reset()
            obs.disable()
        assert len(run.report.results) == 30
        assert counters["fleet.datasets.drawn"] == 3
        assert counters["fleet.datasets.reused"] == 27

    @pytest.mark.parametrize("study", ["fig7", "sweep-capacitor"])
    def test_study_tables_byte_equal_pooled_threaded_serial(self, study):
        import threading

        from repro.study import run_study

        serial = run_study(study, engine="fast", parallel=False)
        pooled = run_study(study, engine="fast", workers=2)
        assert pooled.report.workers == 2
        assert pooled.table.to_json() == serial.table.to_json()
        threaded = [None, None]

        def work(slot):
            threaded[slot] = run_study(study, engine="fast", parallel=False)

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for run in threaded:
            assert run.table.to_json() == serial.table.to_json()


def _synthetic_report():
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


def _runtime_rows(report):
    """Per-runtime summary rows of ``report``, keyed by runtime."""
    return {r["runtime"]: r
            for r in FleetReport.runtime_table(report.scenario_table())}


class TestReport:
    def test_aggregate_distributions(self):
        report = _synthetic_report()
        agg = _runtime_rows(report)
        assert set(agg) == {"ACE+FLEX", "SONIC"}
        flex = agg["ACE+FLEX"]
        assert flex["dnf_rate"] == 0.0
        assert flex["throughput_hz_p50"] == pytest.approx(1.0)
        sonic = agg["SONIC"]
        assert sonic["dnf_rate"] == pytest.approx(0.5)
        # One completed inference: its energy is the whole distribution.
        assert sonic["mj_per_inf_p50"] == pytest.approx(10.0)
        assert sonic["mj_per_inf_p90"] == pytest.approx(10.0)
        assert report.total_inferences == 4
        assert report.total_completed == 3

    def test_accuracy_uses_completed_only(self):
        report = _synthetic_report()
        # first scenario: predictions are class 0 vs labels (0, 1) -> 1/2
        assert report.results[0].accuracy == pytest.approx(0.5)
        # second: only the completed inference counts, it hit label 0
        assert report.results[1].accuracy == pytest.approx(1.0)

    def test_all_dnf_scenario_aggregates_cleanly(self):
        """A fully failed cell: no completed inferences, so the energy and
        reboot distributions are empty and every percentile is 0.0."""
        def dnf(wall):
            return RunResult(runtime="BASE", completed=False,
                             wall_time_s=wall, energy_j=5e-4, reboots=12,
                             dnf_reason="no durable progress")

        stats = SessionStats(runtime="BASE", results=[dnf(3.0), dnf(2.0)])
        report = FleetReport(results=[
            ScenarioResult(Scenario(name="dead", runtime="BASE", n_samples=2),
                           stats, labels=(0, 1)),
        ])
        agg = _runtime_rows(report)["BASE"]
        assert agg["dnf_rate"] == 1.0
        assert agg["scenarios"] == 1
        # Empty energy/reboot distributions percentile to 0.0.
        assert agg["mj_per_inf_p50"] == 0.0
        assert agg["mj_per_inf_p90"] == 0.0
        assert agg["reboots_per_inf_p50"] == 0.0
        assert agg["throughput_hz_p50"] == 0.0
        assert agg["throughput_hz_p10"] == 0.0
        assert report.results[0].accuracy == 0.0
        assert report.total_completed == 0
        text = report.render()
        assert "100.0%" in text  # the DNF column
        assert "0/2 inferences" in text

    def test_empty_labels_accuracy_is_zero(self):
        stats = SessionStats(runtime="BASE", results=[])
        result = ScenarioResult(Scenario(name="n", n_samples=1), stats)
        assert result.accuracy == 0.0

    def test_single_sample_percentiles_collapse(self):
        """With one observation every percentile must be that observation."""
        one = SessionStats(runtime="TAILS", results=[
            RunResult(runtime="TAILS", completed=True, predicted_class=0,
                      wall_time_s=2.0, energy_j=4e-3, reboots=3),
        ])
        report = FleetReport(results=[
            ScenarioResult(Scenario(name="solo", runtime="TAILS", n_samples=1),
                           one, labels=(0,)),
        ])
        scenarios = report.scenario_table()
        for q in (0, 10, 50, 90, 100):
            assert scenarios.percentile("throughput_hz", q) == pytest.approx(0.5)
        agg = _runtime_rows(report)["TAILS"]
        assert agg["throughput_hz_p50"] == pytest.approx(0.5)
        assert agg["throughput_hz_p10"] == pytest.approx(0.5)
        assert agg["mj_per_inf_p50"] == pytest.approx(4.0)
        assert agg["mj_per_inf_p90"] == pytest.approx(4.0)
        assert agg["reboots_per_inf_p50"] == pytest.approx(3.0)
        assert agg["dnf_rate"] == 0.0

    def test_render_contains_tables(self):
        text = _synthetic_report().render()
        assert "Fleet report: 2 scenarios" in text
        assert "Per-scenario results" in text
        assert "SONIC" in text and "ACE+FLEX" in text


class TestCli:
    def test_parser_accepts_fleet(self):
        args = build_parser().parse_args(
            ["run", "fleet", "--serial", "--workers", "2", "--samples", "1",
             "--task", "mnist", "har"]
        )
        assert args.command == "run" and args.study == "fleet"
        assert args.serial and args.workers == 2
        assert args.task == ["mnist", "har"]
        assert args.engine == "reference"
        fast = build_parser().parse_args(["run", "fleet", "--engine", "fast"])
        assert fast.engine == "fast"

    def test_fleet_fast_engine_smoke(self, capsys):
        assert main(["run", "fleet", "--serial", "--samples", "1",
                     "--engine", "fast"]) == 0
        assert "Fleet study:" in capsys.readouterr().out

    def test_fleet_corpus_smoke(self, capsys):
        assert main(["run", "fleet", "--serial", "--samples", "1",
                     "--engine", "fast", "--corpus", "rf-markov",
                     "mixed-day"]) == 0
        out = capsys.readouterr().out
        assert "corpus:rf-markov" in out
        assert "corpus:mixed-day" in out

    def test_fleet_corpus_rejects_unknown_entry(self, capsys):
        """Configuration errors exit 1 with a one-line stderr message."""
        assert main(["run", "fleet", "--serial", "--corpus",
                     "no-such-entry"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and "no-such-entry" in err

    def test_fleet_smoke(self, capsys):
        assert main(["run", "fleet", "--serial", "--samples", "1"]) == 0
        out = capsys.readouterr().out
        assert "Fleet study:" in out
        assert "1 unique models" in out

