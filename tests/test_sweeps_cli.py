"""Tests for the design-space sweeps and the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.fleet import FleetRunner, Scenario, TraceSpec
from repro.study import ResultTable, get_study, run_study


def _sweep(cells, task="mnist", seed=0):
    """Run ``(axis, runtime, trace, cap_uf)`` cells as one-sample scenarios,
    built the way the sweep studies build theirs; returns
    ``{axis: {runtime: completed}}``."""
    scenarios = [
        Scenario(name=f"{task}/{axis}/{runtime}", task=task, runtime=runtime,
                 trace=trace, cap_uf=cap_uf, n_samples=1, seed=seed,
                 model_seed=seed)
        for axis, runtime, trace, cap_uf in cells
    ]
    report = FleetRunner(parallel=False).run(scenarios)
    table = {}
    for res in report.results:
        axis = float(res.scenario.name.split("/")[1])
        table.setdefault(axis, {})[res.scenario.runtime] = \
            res.stats.results[0].completed
    return table


def _capacitance_sweep(caps_uf, runtimes):
    return _sweep([(cap, rt, TraceSpec("square"), cap)
                   for cap in caps_uf for rt in runtimes])


def _harvest_power_sweep(powers_mw, runtimes):
    return _sweep([(p_mw, rt, TraceSpec("square", p_mw * 1e-3), 100.0)
                   for p_mw in powers_mw for rt in runtimes])


class TestSweeps:
    def test_capacitance_crossover(self):
        """With enough storage even uncheckpointed runtimes complete; with
        little storage they DNF — the completion boundary must exist."""
        table = _capacitance_sweep((47.0, 2000.0), ("ACE",))
        assert not table[47.0]["ACE"]
        assert table[2000.0]["ACE"]

    def test_flex_survives_all_capacitors(self):
        table = _capacitance_sweep((47.0, 100.0), ("ACE+FLEX",))
        for row in table.values():
            assert row["ACE+FLEX"]

    def test_power_sweep_strong_supply_rescues_base(self):
        table = _harvest_power_sweep((2.0, 60.0), ("ACE", "ACE+FLEX"))
        assert not table[2.0]["ACE"]
        assert table[60.0]["ACE"]
        assert table[2.0]["ACE+FLEX"]

    def test_trace_sweep_all_complete(self):
        table = run_study("sweep-trace", parallel=False).table
        assert set(table.column("trace")) == {
            "square-wave", "bursty-rf", "solar-like"}
        assert all(table.column("completed"))

    def test_render_sweep(self):
        table = ResultTable((("axis", "float"), ("runtime", "str"),
                             ("completed", "bool"), ("wall_ms", "float"),
                             ("reboots", "int")))
        table.append(axis=1.0, runtime="ACE", completed=False, wall_ms=0.0,
                     reboots=0)
        table.append(axis=2.0, runtime="ACE", completed=True, wall_ms=100.0,
                     reboots=3)
        text = get_study("sweep-power").render(table)
        assert "DNF" in text and "100ms/3rb" in text


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        for name in ("table1", "fig8", "overhead", "ablation-overflow"):
            args = parser.parse_args(["run", name])
            assert args.command == "run" and args.study == name

    def test_fig7_task_choice(self):
        args = build_parser().parse_args(["run", "fig7", "--task", "har"])
        assert args.task == ["har"]

    def test_invalid_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_table1_main(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "93.75%" in out

    def test_fig8_main(self, capsys):
        assert main(["run", "fig8"]) == 0
        assert "BCM 128" in capsys.readouterr().out

    def test_sweep_trace_main(self, capsys):
        assert main(["run", "sweep-trace"]) == 0
        assert "square-wave" in capsys.readouterr().out
