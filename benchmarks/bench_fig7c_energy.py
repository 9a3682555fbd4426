"""F7c — Figure 7(c): per-component energy breakdown.

Checks the paper's energy claims: ACE+FLEX saves 6.1x/10.9x/6.25x vs
SONIC and 4.31x/5.26x/3.05x vs TAILS (we assert generous bands around the
orderings), and the LEA/DMA path shifts energy off the CPU.
"""

from repro.experiments import PAPER_FIG7C_SAVINGS

from benchmarks.conftest import run_study_once


def test_fig7c_energy_breakdown(benchmark):
    table = run_study_once(benchmark, "fig7")
    cont = table.filter(lambda r: r["regime"] == "continuous")
    for task, group in cont.group_by("task").items():
        rows = {r["runtime"]: r for r in group}
        flex_e = rows["ACE+FLEX"]["energy_mj"]
        sonic_saving = rows["SONIC"]["energy_mj"] / flex_e
        tails_saving = rows["TAILS"]["energy_mj"] / flex_e
        assert 4.0 <= sonic_saving <= 14.0
        assert 1.3 <= tails_saving <= 6.0
        benchmark.extra_info[f"{task}_sonic_saving"] = round(sonic_saving, 2)
        benchmark.extra_info[f"{task}_tails_saving"] = round(tails_saving, 2)
        benchmark.extra_info[f"{task}_paper"] = PAPER_FIG7C_SAVINGS[task]
        # The accelerated runtimes move energy off the CPU.
        assert rows["ACE+FLEX"]["cpu_mj"] < rows["SONIC"]["cpu_mj"]
        # LEA energy exists only for LEA-capable runtimes.
        assert rows["BASE"]["lea_mj"] == 0.0
        assert rows["ACE+FLEX"]["lea_mj"] > 0.0
