"""A3 — ablation: DMA versus CPU-driven data movement.

The paper: "utilizing DMA with bulk data transfer achieves significant
improvement over CPU-based data transfer."  Disabling the DMA engine
must cost both time and energy.
"""

from benchmarks.conftest import run_study_once


def test_ablation_dma(benchmark):
    table = run_study_once(benchmark, "ablation-dma")
    for row in table:
        task = row["task"]
        time_saving = row["cpu_ms"] / row["dma_ms"]
        energy_saving = row["cpu_mj"] / row["dma_mj"]
        assert time_saving > 1.05, f"{task}: DMA must be faster"
        assert energy_saving > 1.05, f"{task}: DMA must be cheaper"
        benchmark.extra_info[f"{task}_time_saving"] = round(time_saving, 2)
        benchmark.extra_info[f"{task}_energy_saving"] = round(energy_saving, 2)
