"""T1 — Table I: BCM compression of a 512x512 FC layer.

Regenerates the storage-reduction table; the reductions are arithmetic
identities so the benchmark also asserts exact agreement with the paper.
"""

from repro.experiments import PAPER_TABLE1

from benchmarks.conftest import run_study_once


def test_table1_bcm_compression(benchmark):
    table = run_study_once(benchmark, "table1")
    by_block = {r["block_size"]: r for r in table}
    for block, (comp_bytes, reduction) in PAPER_TABLE1.items():
        assert by_block[block]["compressed_bytes"] == comp_bytes
        assert abs(by_block[block]["reduction_pct"] / 100 - reduction) < 1e-3
        benchmark.extra_info[f"block_{block}_bytes"] = comp_bytes
