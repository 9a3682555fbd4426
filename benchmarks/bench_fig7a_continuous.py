"""F7a — Figure 7(a): inference time under continuous power.

Runs BASE / SONIC / TAILS / ACE / ACE+FLEX on each task and checks the
paper's orderings: ACE+FLEX fastest, SONIC slowest, speedups in band.
"""

from repro.experiments import PAPER_FIG7A_SPEEDUPS

from benchmarks.conftest import run_study_once


def test_fig7a_continuous(benchmark):
    table = run_study_once(benchmark, "fig7")
    cont = table.filter(lambda r: r["regime"] == "continuous")
    for task, group in cont.group_by("task").items():
        wall = {r["runtime"]: r["wall_ms"] for r in group}
        for name in ("BASE", "SONIC", "TAILS"):
            speedup = wall[name] / wall["ACE+FLEX"]
            assert speedup > 1.3, f"{task}/{name} too close to ACE+FLEX"
            benchmark.extra_info[f"{task}_{name}_speedup"] = round(speedup, 2)
            benchmark.extra_info[f"{task}_{name}_paper"] = (
                PAPER_FIG7A_SPEEDUPS[task][name]
            )
        assert wall["SONIC"] == max(wall.values())
