"""C1 — Section IV-A.5: FLEX checkpoint/restore overhead.

Paper: worst-case checkpoint cost <= 0.033 mJ; total overhead 1% / 1.25%
/ 0.8% for MNIST / HAR / OKG.
"""

from repro.experiments import PAPER_MAX_COST_MJ

from benchmarks.conftest import run_study_once


def test_checkpoint_overhead(benchmark):
    table = run_study_once(benchmark, "overhead")
    for row in table:
        task = row["task"]
        assert row["completed"]
        assert row["worst_ckpt_mj"] <= PAPER_MAX_COST_MJ
        assert row["total_overhead"] < 0.10  # same order as the paper's ~1%
        benchmark.extra_info[f"{task}_overhead_pct"] = round(
            100 * row["total_overhead"], 2
        )
        benchmark.extra_info[f"{task}_worst_ckpt_mj"] = round(
            row["worst_ckpt_mj"], 5
        )
