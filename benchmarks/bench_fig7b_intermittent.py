"""F7b — Figure 7(b): inference time under intermittent power (100 uF).

The qualitative contract of the paper's figure: BASE and plain ACE never
complete (the "X" bars); SONIC / TAILS / ACE+FLEX complete, with ACE+FLEX
fastest and only a small latency/energy penalty versus continuous power.
"""

from repro.experiments import PAPER_FIG7B_SPEEDUPS

from benchmarks.conftest import run_study_once


def test_fig7b_intermittent(benchmark):
    table = run_study_once(benchmark, "fig7")
    for task, group in table.group_by("task").items():
        inter = {r["runtime"]: r for r in group
                 if r["regime"] == "intermittent"}
        assert not inter["BASE"]["completed"], f"{task}: BASE must DNF"
        assert not inter["ACE"]["completed"], f"{task}: plain ACE must DNF"
        for name in ("SONIC", "TAILS", "ACE+FLEX"):
            assert inter[name]["completed"], f"{task}: {name} must complete"
        flex = inter["ACE+FLEX"]
        for name in ("SONIC", "TAILS"):
            speedup = inter[name]["active_ms"] / flex["active_ms"]
            assert speedup > 1.2
            benchmark.extra_info[f"{task}_{name}_speedup"] = round(speedup, 2)
            benchmark.extra_info[f"{task}_{name}_paper"] = (
                PAPER_FIG7B_SPEEDUPS[task][name]
            )
        # Latency/energy penalty vs continuous stays small (paper: 1-2%).
        cont = {r["runtime"]: r for r in group
                if r["regime"] == "continuous"}["ACE+FLEX"]
        assert flex["active_ms"] <= cont["active_ms"] * 1.10
        benchmark.extra_info[f"{task}_flex_reboots"] = flex["reboots"]
