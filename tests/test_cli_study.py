"""CLI smoke tests for the study-based command line: `repro list`,
`repro run`, the alias subcommands, --version, and error-exit behavior."""

import json

import pytest

from repro.cli import build_parser, main
from repro.study import ResultTable, study_names


class TestListCommand:
    def test_lists_every_study(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in study_names():
            assert name in out
        assert "Registered studies" in out


class TestRunCommand:
    def test_parser_run_flags(self):
        args = build_parser().parse_args(
            ["run", "fig7", "--engine", "fast", "--workers", "2",
             "--task", "mnist", "har", "--json", "out.json"])
        assert args.study == "fig7"
        assert args.engine == "fast" and args.workers == 2
        assert args.task == ["mnist", "har"]
        assert args.json == "out.json"

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "93.75%" in capsys.readouterr().out

    def test_run_fig8_json_round_trips(self, tmp_path, capsys):
        out = str(tmp_path / "fig8.json")
        assert main(["run", "fig8", "--json", out]) == 0
        assert "BCM 128" in capsys.readouterr().out
        text = open(out).read()
        table = ResultTable.from_json(text)
        assert table.column_names == (
            "variant", "block_size", "latency_ms", "energy_uj", "weight_bytes"
        )
        assert len(table) == 4
        assert table.meta["study"] == "fig8"
        # the file is plain JSON too (loadable without the library)
        assert json.loads(text)["schema"][0] == ["variant", "str"]

    def test_run_fig8_npz_round_trips(self, tmp_path, capsys):
        json_out = str(tmp_path / "fig8.json")
        npz_out = str(tmp_path / "fig8.npz")
        assert main(["run", "fig8", "--json", json_out,
                     "--npz", npz_out]) == 0
        from_json = ResultTable.from_json(open(json_out).read())
        from_npz = ResultTable.from_npz(npz_out)
        assert from_json == from_npz

    def test_run_unknown_study_exits_one(self, capsys):
        assert main(["run", "warp-drive"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "unknown study" in err

    def test_run_bad_profile_exits_one(self, capsys):
        assert main(["run", "fleet", "--samples", "0"]) == 1
        assert "samples" in capsys.readouterr().err

    def test_run_rejects_options_the_study_ignores(self, capsys):
        """The TraceSpec stance at the CLI: an option a study cannot
        interpret errors out instead of silently printing wrong-looking
        results (fig8 --task har would print MNIST-based numbers)."""
        assert main(["run", "fig8", "--task", "har"]) == 1
        assert "does not use 'tasks'" in capsys.readouterr().err
        assert main(["run", "table1", "--seed", "7"]) == 1
        assert "does not use 'seed'" in capsys.readouterr().err
        assert main(["run", "table1", "--workers", "2"]) == 1
        assert "--workers" in capsys.readouterr().err
        assert main(["run", "table2", "--engine", "fast"]) == 1
        assert "engine" in capsys.readouterr().err
        assert main(["run", "sweep-trace", "--task", "mnist", "har"]) == 1
        assert "exactly one task" in capsys.readouterr().err

    def test_run_bad_output_path_fails_fast(self, tmp_path, capsys):
        """A bad --json path must fail before the study runs, as a
        one-line error, leaving no artifact behind."""
        bad = str(tmp_path / "no" / "such" / "dir" / "out.json")
        assert main(["run", "table1", "--json", bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and "Traceback" not in err


class TestAliases:
    """The per-artifact subcommands are gone; each has one spelling,
    'repro run <study>', taking the same flags."""

    def test_alias_parsers_accept_classic_argv(self):
        parser = build_parser()
        for argv in (["table1"], ["table2", "--full"],
                     ["fig7", "--task", "har"], ["fig8"], ["overhead"],
                     ["ablation-overflow"], ["sweep-capacitor"],
                     ["fleet", "--samples", "1", "--engine", "fast"]):
            args = parser.parse_args(["run", *argv])
            assert args.command == "run" and args.study == argv[0]

    def test_sweep_alias_runs_study(self, capsys):
        assert main(["run", "sweep-trace"]) == 0
        out = capsys.readouterr().out
        assert "square-wave" in out and "bursty-rf" in out

    def test_fleet_alias_keeps_report_and_cache_summary(self, capsys):
        """'repro run fleet' with the old alias's flags still prints the
        per-runtime report and the model-cache count in its header."""
        assert main(["run", "fleet", "--serial", "--samples", "1",
                     "--engine", "fast"]) == 0
        out = capsys.readouterr().out
        assert "Fleet study: 18 scenarios, 1 unique models" in out
        for runtime in ("SONIC", "TAILS", "ACE+FLEX"):
            assert runtime in out
        assert "Per-scenario results" in out

    def test_removed_aliases_exit_2(self, capsys):
        for alias in ("table1", "table2", "fig7", "fig8", "overhead",
                      "ablations", "sweep", "fleet", "all"):
            with pytest.raises(SystemExit) as exc:
                main([alias])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err


class TestVersionAndErrors:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_configuration_error_is_one_line(self, capsys):
        assert main(["traces", "export", "rf-markov", "--out", "x.txt"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # a single line, not a traceback
        assert "Traceback" not in err
