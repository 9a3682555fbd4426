"""A5 — ablation: RAD's compression contribution in isolation.

Same accelerated runtime (ACE), dense backbone versus the RAD-compressed
model: compression must buy both a size reduction (>90% on MNIST) and a
runtime speedup, independent of the accelerator/dataflow gains.
"""

from benchmarks.conftest import run_study_once


def test_ablation_compression(benchmark):
    (row,) = run_study_once(benchmark, "ablation-compression")
    speedup = row["dense_ms"] / row["compressed_ms"]
    size_reduction = 1.0 - row["compressed_bytes"] / row["dense_bytes"]
    assert speedup > 1.3
    assert size_reduction > 0.85
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["size_reduction_pct"] = round(100 * size_reduction, 1)
