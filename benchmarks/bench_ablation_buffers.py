"""A2 — ablation: circular-buffer convolution (Figure 5).

ACE's two ping-pong buffers versus one buffer per layer: the memory
saving that lets deep models fit beside their weights in FRAM.
"""

from benchmarks.conftest import run_study_once


def test_ablation_buffers(benchmark):
    table = run_study_once(benchmark, "ablation-buffers")
    for row in table:
        task = row["task"]
        saving = 1.0 - row["circular_bytes"] / row["per_layer_bytes"]
        assert row["circular_bytes"] <= row["per_layer_bytes"]
        assert saving > 0.25, f"{task}: expected a real saving"
        benchmark.extra_info[f"{task}_saving_pct"] = round(100 * saving, 1)
