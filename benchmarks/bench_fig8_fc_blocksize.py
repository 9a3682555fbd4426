"""F8 — Figure 8: latency and energy of MNIST's FC1 vs BCM block size.

The paper's trend: larger blocks give monotonically lower latency and
energy ("improve the performance of FC layers by tens of times").
"""

from benchmarks.conftest import run_study_once


def test_fig8_fc_blocksize(benchmark):
    table = run_study_once(benchmark, "fig8")
    points = {r["block_size"]: r for r in table}  # 0 = dense
    latencies = [points[b]["latency_ms"] for b in (0, 32, 64, 128)]
    energies = [points[b]["energy_uj"] for b in (0, 32, 64, 128)]
    assert latencies == sorted(latencies, reverse=True)
    assert energies == sorted(energies, reverse=True)
    # "tens of times" for the largest block vs dense:
    speedup_128 = points[0]["latency_ms"] / points[128]["latency_ms"]
    assert speedup_128 > 8.0
    for block in (32, 64, 128):
        benchmark.extra_info[f"block{block}_speedup"] = round(
            points[0]["latency_ms"] / points[block]["latency_ms"], 1
        )
        benchmark.extra_info[f"block{block}_energy_saving"] = round(
            points[0]["energy_uj"] / points[block]["energy_uj"], 1
        )
