"""A1 — ablation: overflow-aware computation (ACE Algorithm 1).

With scaling enabled ("stage" or the paper-literal "prescale") the BCM
pipeline produces accurate results with zero saturation; disabling it
("none") corrupts the outputs — the motivation for Algorithm 1.
"""

from benchmarks.conftest import run_study_once


def test_ablation_overflow(benchmark):
    table = run_study_once(benchmark, "ablation-overflow")  # MNIST, 32 samples
    rows = {r["mode"]: r for r in table}
    assert rows["stage"]["overflow_events"] == 0
    assert rows["prescale"]["overflow_events"] == 0
    assert rows["none"]["overflow_events"] > 100
    assert rows["stage"]["max_rel_error"] < 0.10
    assert rows["none"]["max_rel_error"] > 3 * rows["stage"]["max_rel_error"]
    assert rows["stage"]["argmax_agreement"] >= rows["none"]["argmax_agreement"]
    for mode, row in rows.items():
        benchmark.extra_info[f"{mode}_overflows"] = row["overflow_events"]
        benchmark.extra_info[f"{mode}_err"] = round(row["max_rel_error"], 4)
