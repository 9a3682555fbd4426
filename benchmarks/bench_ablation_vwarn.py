"""A4 — ablation: FLEX's voltage-monitor warning threshold.

FLEX snapshots intermediates when the supply voltage sinks below
``v_warn``.  Eager thresholds (high v_warn) pay more checkpoint energy;
late thresholds risk more rollback.  The bench verifies the monotone
cost relationship and that every threshold still completes correctly.
"""

from benchmarks.conftest import run_study_once


def test_ablation_vwarn(benchmark):
    table = run_study_once(benchmark, "ablation-vwarn")
    rows = {r["v_warn"]: r for r in table}
    thresholds = sorted(rows)
    for v in thresholds:
        assert rows[v]["completed"]
    # Checkpoint energy must rise with eagerness of the trigger.
    energies = [rows[v]["checkpoint_uj"] for v in thresholds]
    assert energies == sorted(energies)
    for v in thresholds:
        benchmark.extra_info[f"vwarn_{v}_ckpt_uj"] = round(
            rows[v]["checkpoint_uj"], 2
        )
