"""Tests for the empirical power-trace corpus (repro.power.corpus et al.).

Covers the EmpiricalTrace prefix-sum energy semantics (exactness,
end-of-trace policies, windowed additivity), the importers/exporters
(CSV/NPZ round trips must preserve energies bit for bit), the composable
transforms, the seeded generative families, the TraceCorpus registry,
and the fleet/CLI integration (TraceSpec kind="corpus", corpus_traces,
``repro traces``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.fleet import TraceSpec, corpus_traces, scenario_grid
from repro.power import (
    CORPUS,
    EmpiricalTrace,
    SquareWaveTrace,
    TraceCorpus,
)
from repro.power import generators


def staircase(end="loop"):
    """Hand-checkable fixture: 1 s at 2 mW, 2 s at 0, 1 s at 4 mW."""
    return EmpiricalTrace([0.0, 1.0, 3.0, 4.0], [2e-3, 0.0, 4e-3], end=end)


class TestEmpiricalTraceBasics:
    def test_energy_exact_within_recording(self):
        tr = staircase()
        assert tr.energy(0.0, 1.0) == pytest.approx(2e-3)
        assert tr.energy(0.0, 4.0) == pytest.approx(6e-3)
        assert tr.energy(1.0, 2.0) == 0.0
        assert tr.energy(0.5, 1.0) == pytest.approx(1e-3)   # straddles an edge
        assert tr.energy(3.25, 0.5) == pytest.approx(2e-3)  # inside a segment

    def test_power_lookup(self):
        tr = staircase()
        assert tr.power(0.5) == 2e-3
        assert tr.power(2.0) == 0.0
        assert tr.power(3.999) == 4e-3
        assert tr.power(1.0) == 0.0  # left-closed segments

    def test_properties(self):
        tr = staircase()
        assert tr.duration_s == 4.0
        assert tr.energy(0.0, tr.duration_s) == pytest.approx(6e-3)
        assert tr.mean_power_w == pytest.approx(1.5e-3)
        assert tr.peak_power_w == 4e-3

    def test_times_are_shifted_to_zero(self):
        tr = EmpiricalTrace([10.0, 11.0, 12.0], [1e-3, 2e-3])
        assert tr.times[0] == 0.0
        assert tr.duration_s == 2.0
        assert tr.energy(0.0, 2.0) == pytest.approx(3e-3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EmpiricalTrace([0.0, 1.0], [1e-3], end="bounce")
        with pytest.raises(ConfigurationError):
            EmpiricalTrace([0.0, 1.0, 0.5], [1e-3, 1e-3])  # not increasing
        with pytest.raises(ConfigurationError):
            EmpiricalTrace([0.0, 1.0], [-1e-3])            # negative power
        with pytest.raises(ConfigurationError):
            EmpiricalTrace([0.0, 1.0, 2.0], [1e-3])        # length mismatch
        with pytest.raises(ConfigurationError):
            EmpiricalTrace([0.0, np.nan], [1e-3])          # non-finite
        with pytest.raises(ConfigurationError):
            staircase().energy(0.0, -1.0)
        with pytest.raises(ConfigurationError):
            staircase().energy(-1.0, 1.0)
        with pytest.raises(ConfigurationError):
            staircase().power(-0.1)

    def test_unit_validation_catches_watt_milliwatt_mixups(self):
        # A "5 mW" trace logged in milliwatt units: peak 5000x too high.
        with pytest.raises(ConfigurationError):
            EmpiricalTrace([0.0, 1.0], [5000.0])
        EmpiricalTrace([0.0, 1.0], [5000.0], max_power_w=None)  # explicit ok


class TestEndPolicies:
    def test_loop_wraps_power_and_energy(self):
        tr = staircase("loop")
        assert tr.power(4.5) == tr.power(0.5)
        assert tr.energy(4.0, 4.0) == pytest.approx(6e-3)
        # A window straddling the wrap point.
        assert tr.energy(3.5, 1.0) == pytest.approx(4e-3 * 0.5 + 2e-3 * 0.5)
        # Many cycles out the lookup stays exact.
        assert tr.energy(400.0, 4.0) == pytest.approx(6e-3)

    def test_hold_continues_last_power(self):
        tr = staircase("hold")
        assert tr.power(100.0) == 4e-3
        assert tr.energy(4.0, 10.0) == pytest.approx(4e-3 * 10.0)
        assert tr.energy(3.5, 1.0) == pytest.approx(4e-3 * 1.0)

    def test_dead_stops_harvesting(self):
        tr = staircase("dead")
        assert tr.power(100.0) == 0.0
        assert tr.energy(4.0, 10.0) == 0.0
        assert tr.energy(3.5, 1.0) == pytest.approx(4e-3 * 0.5)

    def test_csv_persists_end_policy(self, tmp_path):
        path = str(tmp_path / "dead.csv")
        staircase("dead").to_csv(path)
        assert EmpiricalTrace.from_csv(path).end == "dead"


class TestAdditivity:
    """energy(t, a) + energy(t + a, b) == energy(t, a + b) (satellite)."""

    @pytest.mark.parametrize("end", ["loop", "hold", "dead"])
    @settings(max_examples=60, deadline=None)
    @given(
        t=st.floats(min_value=0.0, max_value=20.0),
        a=st.floats(min_value=0.0, max_value=10.0),
        b=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_empirical_all_end_policies(self, end, t, a, b):
        tr = staircase(end)
        lhs = tr.energy(t, a) + tr.energy(t + a, b)
        rhs = tr.energy(t, a + b)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(
        t=st.floats(min_value=0.0, max_value=300.0),
        a=st.floats(min_value=0.0, max_value=50.0),
        b=st.floats(min_value=0.0, max_value=50.0),
    )
    def test_corpus_entry(self, t, a, b):
        tr = CORPUS.get("rf-markov")
        lhs = tr.energy(t, a) + tr.energy(t + a, b)
        rhs = tr.energy(t, a + b)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-15)

    def test_no_drift_across_many_windows(self):
        """Summed window energies equal the whole-window energy — the
        prefix-sum path cannot accumulate integration drift."""
        tr = CORPUS.get("kinetic-walk", seed=2)
        total = tr.energy(0.0, 50.0)
        chunks = sum(tr.energy(i * 0.05, 0.05) for i in range(1000))
        assert chunks == pytest.approx(total, rel=1e-9)


class TestAgainstClosedForms:
    def test_matches_square_wave(self):
        """The empirically-rendered testbed wave must integrate exactly
        like the analytic SquareWaveTrace over the rendered horizon."""
        emp = CORPUS.get("testbed-square")
        ana = SquareWaveTrace(5e-3, 0.05, 0.3)
        for t, dt in [(0.0, 0.05), (0.01, 0.1), (0.33, 1.2), (1.999, 0.001),
                      (0.0, 2.0)]:
            assert emp.energy(t, dt) == pytest.approx(ana.energy(t, dt),
                                                      rel=1e-12, abs=1e-18)

    def test_loop_matches_analytic_periodicity(self):
        emp = CORPUS.get("testbed-square")  # 2 s recording, loops
        ana = SquareWaveTrace(5e-3, 0.05, 0.3)
        assert emp.energy(7.31, 0.4) == pytest.approx(ana.energy(7.31, 0.4),
                                                      rel=1e-9)


class TestTransforms:
    def test_scale_to_mean_power(self):
        tr = staircase().scale_to_mean_power(3e-3)
        assert tr.mean_power_w == pytest.approx(3e-3)
        assert tr.duration_s == 4.0
        with pytest.raises(ConfigurationError):
            EmpiricalTrace([0.0, 1.0], [0.0]).scale_to_mean_power(1e-3)

    def test_time_dilate(self):
        tr = staircase().time_dilate(2.0)
        assert tr.duration_s == 8.0
        assert tr.energy(0.0, tr.duration_s) == pytest.approx(12e-3)  # energy scales
        assert tr.peak_power_w == 4e-3                    # powers do not

    def test_slice(self):
        tr = staircase().slice(0.5, 3.5)
        assert tr.duration_s == 3.0
        assert tr.energy(0.0, 3.0) == pytest.approx(
            staircase().energy(0.5, 3.0))
        with pytest.raises(ConfigurationError):
            staircase().slice(3.0, 3.0)
        with pytest.raises(ConfigurationError):
            staircase().slice(0.0, 5.0)

    def test_slice_on_exact_edges(self):
        tr = staircase().slice(1.0, 3.0)
        assert tr.duration_s == 2.0
        assert tr.energy(0.0, tr.duration_s) == 0.0  # exactly the dead segment

    def test_concat(self):
        tr = staircase().concat(staircase())
        assert tr.duration_s == 8.0
        assert tr.energy(0.0, tr.duration_s) == pytest.approx(12e-3)
        assert tr.energy(4.0, 1.0) == pytest.approx(2e-3)

    def test_with_outages_only_removes_energy(self):
        base = CORPUS.get("solar-clear")
        cut = base.with_outages(rate_hz=0.2, mean_outage_s=5.0, seed=1)
        assert cut.duration_s == base.duration_s
        assert cut.energy(0.0, cut.duration_s) < base.energy(0.0, base.duration_s)
        assert cut.stats().outage_fraction > base.stats().outage_fraction
        # Deterministic per seed.
        again = base.with_outages(rate_hz=0.2, mean_outage_s=5.0, seed=1)
        assert np.array_equal(cut.times, again.times)
        assert np.array_equal(cut.powers, again.powers)


class TestStats:
    def test_staircase_stats(self):
        s = staircase().stats()
        assert s.duration_s == 4.0
        assert s.n_segments == 3
        assert s.mean_power_w == pytest.approx(1.5e-3)
        assert s.peak_power_w == 4e-3
        assert s.outage_fraction == pytest.approx(0.5)
        assert s.burst_s == (1.0, 1.0)
        assert s.n_bursts == 2
        assert s.mean_burst_s == pytest.approx(1.0)
        assert s.max_burst_s == 1.0
        assert "mean 1.500 mW" in s.summary()

    def test_threshold_merges_weak_segments_into_outage(self):
        s = staircase().stats(outage_threshold_w=3e-3)
        assert s.outage_fraction == pytest.approx(0.75)
        assert s.burst_s == (1.0,)

    def test_contiguous_bursts_merge(self):
        tr = EmpiricalTrace([0.0, 1.0, 2.0, 3.0], [1e-3, 2e-3, 0.0])
        assert tr.stats().burst_s == (2.0,)


class TestImporters:
    def test_csv_round_trip_bit_identical(self, tmp_path):
        path = str(tmp_path / "trace.csv")
        orig = CORPUS.get("rf-markov", seed=9)
        orig.to_csv(path)
        back = EmpiricalTrace.from_csv(path)
        assert np.array_equal(orig.times, back.times)
        assert np.array_equal(orig.powers, back.powers)
        assert back.end == orig.end
        for t, dt in [(0.0, 1.0), (17.3, 0.013), (500.0, 12.5)]:
            assert back.energy(t, dt) == orig.energy(t, dt)  # bitwise

    def test_npz_round_trip_bit_identical(self, tmp_path):
        path = str(tmp_path / "trace.npz")
        orig = CORPUS.get("kinetic-jog", seed=2)
        orig.to_npz(path)
        back = EmpiricalTrace.from_npz(path)
        assert np.array_equal(orig.times, back.times)
        assert np.array_equal(orig.powers, back.powers)
        assert back.end == orig.end
        assert back.energy(3.0, 7.7) == orig.energy(3.0, 7.7)

    def test_from_csv_accepts_foreign_header_and_comments(self, tmp_path):
        path = tmp_path / "logger.csv"
        path.write_text(
            "time,powerW\n# a stray comment\n0.0,0.001\n0.5,0.002\n1.0,0.0\n"
        )
        tr = EmpiricalTrace.from_csv(str(path))
        assert tr.duration_s == 1.0
        assert tr.energy(0.0, 1.0) == pytest.approx(1.5e-3)

    def test_from_csv_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,0.001\nnot,numbers\n")
        with pytest.raises(ConfigurationError):
            EmpiricalTrace.from_csv(str(path))
        (tmp_path / "short.csv").write_text("0.0,0.001\n")
        with pytest.raises(ConfigurationError):
            EmpiricalTrace.from_csv(str(tmp_path / "short.csv"))

    def test_from_csv_rejects_corrupt_first_sample(self, tmp_path):
        """Only ONE pre-data non-numeric row is a header — and only if
        no cell of it parses as a float; a corrupt or truncated first
        sample must raise, not be silently dropped (which would shift
        the whole trace)."""
        path = tmp_path / "corrupt.csv"
        path.write_text("time_s,power_w\n0.O,0.001\n0.5,0.002\n1.0,0.0\n")
        with pytest.raises(ConfigurationError, match="line 2"):
            EmpiricalTrace.from_csv(str(path))
        for first_row in ("0.0", "0.0,#REF!"):  # headerless, corrupt
            path.write_text(f"{first_row}\n0.5,0.002\n1.0,0.0\n")
            with pytest.raises(ConfigurationError, match="line 1"):
                EmpiricalTrace.from_csv(str(path))

    def test_round_trip_preserves_disabled_unit_ceiling(self, tmp_path):
        """A deliberately out-of-range trace (max_power_w=None) must
        round-trip through both formats without an explicit override."""
        hot = EmpiricalTrace([0.0, 1.0, 2.0], [5000.0, 20.0],
                             max_power_w=None)
        csv_path = str(tmp_path / "hot.csv")
        npz_path = str(tmp_path / "hot.npz")
        hot.to_csv(csv_path)
        hot.to_npz(npz_path)
        for back in (EmpiricalTrace.from_csv(csv_path),
                     EmpiricalTrace.from_npz(npz_path)):
            assert np.array_equal(back.powers, hot.powers)
        # Foreign files (no directive) still get the default guard.
        (tmp_path / "foreign.csv").write_text("0.0,5000.0\n1.0,0.0\n")
        with pytest.raises(ConfigurationError):
            EmpiricalTrace.from_csv(str(tmp_path / "foreign.csv"))

    def test_from_csv_bad_directives_carry_file_context(self, tmp_path):
        for directive in ("# end=bounce", "# max_power_w=1O.0"):
            path = tmp_path / "bad_directive.csv"
            path.write_text(f"{directive}\n0.0,0.001\n1.0,0.0\n")
            with pytest.raises(ConfigurationError, match="line 1"):
                EmpiricalTrace.from_csv(str(path))

    def test_from_npz_rejects_missing_arrays(self, tmp_path):
        path = str(tmp_path / "bad.npz")
        np.savez(path, times=np.array([0.0, 1.0]))
        with pytest.raises(ConfigurationError):
            EmpiricalTrace.from_npz(path)


class TestGenerators:
    @pytest.mark.parametrize("factory", [
        generators.markov_rf,
        generators.diurnal_solar,
        generators.kinetic_walk,
        generators.office_wifi,
        generators.testbed_square,
    ])
    def test_deterministic_per_seed(self, factory):
        a, b, c = factory(3), factory(3), factory(4)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.powers, b.powers)
        if factory is not generators.testbed_square:  # deterministic bridge
            assert not (np.array_equal(a.times, c.times)
                        and np.array_equal(a.powers, c.powers))

    def test_stated_mean_powers_hold(self):
        assert generators.markov_rf(0).mean_power_w == pytest.approx(1.5e-3)
        assert generators.office_wifi(0).mean_power_w == pytest.approx(0.8e-3)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            generators.diurnal_solar(0, cloudiness=1.5)
        with pytest.raises(ConfigurationError):
            generators.kinetic_walk(0, step_hz=0.0)
        with pytest.raises(ConfigurationError):
            generators.office_wifi(0, office_fraction=0.0)

    def test_cloudy_days_are_dimmer(self):
        clear = generators.diurnal_solar(0, cloudiness=0.0)
        cloudy = generators.diurnal_solar(0, cloudiness=0.6)
        assert (cloudy.energy(0.0, cloudy.duration_s)
                < clear.energy(0.0, clear.duration_s))

    def test_cloudiness_fraction_is_realized(self):
        """``cloudiness`` means what it says: the rendered fraction of
        *daylight* under shadow reaches the requested value (fronts that
        land overnight or overlap existing shadows do not count)."""
        for cloudiness in (0.3, 0.7):
            for seed in range(4):
                clear = generators.diurnal_solar(seed, cloudiness=0.0)
                cloudy = generators.diurnal_solar(seed, cloudiness=cloudiness)
                daylight = clear.powers > 0
                seg = np.diff(cloudy.times)
                shadowed = seg[daylight & (cloudy.powers < clear.powers)].sum()
                fraction = shadowed / seg[daylight].sum()
                assert fraction >= cloudiness - 1e-9, (cloudiness, seed)


class TestTraceCorpus:
    def test_bundled_corpus_is_rich_enough(self):
        # The acceptance bar: >= 6 named entries, each with stats.
        assert len(CORPUS) >= 6
        for name in CORPUS.names():
            s = CORPUS.stats(name)
            assert s.duration_s > 0 and s.mean_power_w > 0

    def test_get_is_memoized_and_seeded(self):
        assert CORPUS.get("rf-markov", seed=1) is CORPUS.get("rf-markov", seed=1)
        a = CORPUS.get("rf-markov", seed=1)
        b = CORPUS.get("rf-markov", seed=2)
        assert not np.array_equal(a.powers, b.powers)

    def test_unknown_entry_lists_names(self):
        with pytest.raises(ConfigurationError, match="rf-markov"):
            CORPUS.get("laser-beam")

    def test_register_and_describe(self):
        corpus = TraceCorpus()
        corpus.register("flat", lambda seed: EmpiricalTrace([0.0, 1.0], [1e-3]),
                        "steady 1 mW")
        assert "flat" in corpus
        assert corpus.names() == ["flat"]
        assert "steady 1 mW" in corpus.describe("flat")
        with pytest.raises(ConfigurationError):
            corpus.register("flat", lambda seed: None, "dup")
        with pytest.raises(ConfigurationError):
            corpus.register("", lambda seed: None, "anon")

    def test_factory_type_is_enforced(self):
        corpus = TraceCorpus()
        corpus.register("broken", lambda seed: object(), "not a trace")
        with pytest.raises(ConfigurationError):
            corpus.get("broken")

    def test_summary_table_lists_everything(self):
        table = CORPUS.summary_table()
        for name in CORPUS.names():
            assert name in table

    def test_deterministic_entries_reject_seed_sweeps(self):
        """testbed-square/solar-clear render identically for every seed;
        a non-zero seed would duplicate the supply under a new scenario
        name, so the registry refuses it."""
        with pytest.raises(ConfigurationError, match="deterministic"):
            CORPUS.get("testbed-square", seed=1)
        with pytest.raises(ConfigurationError, match="deterministic"):
            CORPUS.get("solar-clear", seed=2)
        CORPUS.get("testbed-square", seed=0)  # seed 0 is the rendering


class TestTraceSpecCorpusKind:
    def test_build_renders_and_scales(self):
        spec = TraceSpec("corpus", 2e-3, corpus="rf-markov", seed=3)
        trace = spec.build()
        assert isinstance(trace, EmpiricalTrace)
        assert trace.mean_power_w == pytest.approx(2e-3)

    def test_native_scale_when_power_zero(self):
        spec = TraceSpec("corpus", 0.0, corpus="kinetic-walk")
        native = CORPUS.get("kinetic-walk")
        assert spec.build().mean_power_w == pytest.approx(native.mean_power_w)

    def test_terse_spec_defaults_to_native_scale(self):
        """TraceSpec('corpus', corpus=...) without power_w must keep the
        entry's native level, not inherit the analytic 5 mW default and
        silently flatten the supply-level axis."""
        spec = TraceSpec("corpus", corpus="wifi-office")
        assert spec.power_w == 0.0
        native = CORPUS.get("wifi-office")
        assert spec.build().mean_power_w == pytest.approx(native.mean_power_w)
        # The analytic kinds keep the testbed default.
        assert TraceSpec("square").power_w == 5e-3
        assert TraceSpec() == TraceSpec("square", 5e-3)

    def test_requires_entry_name(self):
        with pytest.raises(ConfigurationError):
            TraceSpec("corpus", 1e-3)

    def test_negative_seed_fails_at_construction(self):
        """numpy rejects negative rng seeds; the spec must fail before a
        worker's build() does."""
        with pytest.raises(ConfigurationError, match="seed"):
            TraceSpec("corpus", corpus="rf-markov", seed=-1)
        with pytest.raises(ConfigurationError, match="seed"):
            TraceSpec("rf", 1e-3, seed=-2)

    def test_unknown_entry_fails_in_build(self):
        spec = TraceSpec("corpus", 1e-3, corpus="no-such-entry")
        with pytest.raises(ConfigurationError):
            spec.build()

    def test_labels_distinguish_name_seed_and_scale(self):
        specs = (
            TraceSpec("corpus", 0.0, corpus="rf-markov"),
            TraceSpec("corpus", 0.0, corpus="rf-markov", seed=1),
            TraceSpec("corpus", 2e-3, corpus="rf-markov"),
            TraceSpec("corpus", 0.0, corpus="kinetic-walk"),
        )
        labels = [s.label() for s in specs]
        assert len(set(labels)) == len(labels)

    def test_spec_is_hashable_and_picklable(self):
        import pickle

        spec = TraceSpec("corpus", 1e-3, corpus="mixed-day", seed=5)
        assert pickle.loads(pickle.dumps(spec)) == spec
        {spec}  # hashable


class TestCorpusGrid:
    def test_corpus_traces_axis(self):
        traces = corpus_traces(("rf-markov", "solar-cloudy"))
        assert len(traces) == 2
        assert all(t.kind == "corpus" for t in traces)
        grid = scenario_grid(runtimes=("TAILS",), traces=traces)
        assert len({s.name for s in grid}) == len(grid)

    def test_corpus_traces_default_is_whole_corpus(self):
        assert len(corpus_traces()) == len(CORPUS)

    def test_corpus_traces_validates(self):
        with pytest.raises(ConfigurationError):
            corpus_traces(("no-such-entry",))
        with pytest.raises(ConfigurationError):
            corpus_traces(())


class TestTracesCli:
    def test_parser(self):
        args = build_parser().parse_args(["traces", "list"])
        assert args.command == "traces" and args.action == "list"
        args = build_parser().parse_args(
            ["traces", "export", "rf-markov", "--out", "x.csv", "--seed", "2"])
        assert args.name == "rf-markov" and args.seed == 2

    def test_list_shows_all_entries(self, capsys):
        assert main(["traces", "list"]) == 0
        out = capsys.readouterr().out
        for name in CORPUS.names():
            assert name in out

    def test_list_with_seed_clamps_deterministic_entries(self, capsys):
        """`traces list --seed 1` must render seeded entries at seed 1
        and deterministic ones at their single rendering, not crash."""
        assert main(["traces", "list", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "testbed-square" in out and "rf-markov" in out

    def test_describe(self, capsys):
        assert main(["traces", "describe", "kinetic-walk"]) == 0
        assert "walking" in capsys.readouterr().out

    def test_describe_needs_name(self, capsys):
        assert main(["traces", "describe"]) == 1
        assert "repro: error:" in capsys.readouterr().err

    def test_ignored_arguments_rejected(self, capsys):
        for argv in (
            ["traces", "list", "rf-markov"],
            ["traces", "list", "--out", "x.csv"],
            ["traces", "describe", "rf-markov", "--out", "x.csv"],
        ):
            assert main(argv) == 1
            assert "repro: error:" in capsys.readouterr().err

    def test_export_round_trip(self, tmp_path, capsys):
        csv_path = str(tmp_path / "t.csv")
        npz_path = str(tmp_path / "t.npz")
        assert main(["traces", "export", "wifi-office", "--out", csv_path]) == 0
        assert main(["traces", "export", "wifi-office", "--out", npz_path]) == 0
        orig = CORPUS.get("wifi-office")
        for back in (EmpiricalTrace.from_csv(csv_path),
                     EmpiricalTrace.from_npz(npz_path)):
            assert back.energy(0.0, 60.0) == orig.energy(0.0, 60.0)

    def test_export_needs_out(self, capsys):
        assert main(["traces", "export", "rf-markov"]) == 1
        assert "repro: error:" in capsys.readouterr().err

    def test_export_rejects_unknown_extension(self, capsys):
        """The --out extension selects the format; anything but .csv/.npz
        used to silently write CSV to a misleading path."""
        assert main(["traces", "export", "rf-markov", "--out", "x.json"]) == 1
        err = capsys.readouterr().err
        assert ".csv or .npz" in err
