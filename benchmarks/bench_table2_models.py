"""T2 — Table II: train + compress the three models, report accuracy.

Uses the FAST profile (smaller synthetic datasets / fewer epochs; the
study's default) so the benchmark completes in tens of seconds.
"""

from benchmarks.conftest import run_study_once


def test_table2_models(benchmark):
    table = run_study_once(benchmark, "table2")
    for row in table:
        task = row["task"]
        # Compression + quantization must retain useful accuracy.
        assert row["quantized_acc"] > 0.5
        assert row["quantized_acc"] >= row["float_acc"] - 0.15
        benchmark.extra_info[f"{task}_quantized_acc"] = round(
            row["quantized_acc"], 4
        )
        benchmark.extra_info[f"{task}_paper_acc"] = row["paper_acc"]
