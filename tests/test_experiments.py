"""Tests for the shared experiment helpers and the paper-artifact
studies (tables, figures, ablations)."""

import numpy as np
import pytest

from repro.experiments import (
    BLOCK_SIZES,
    PAPER_TABLE1,
    RUNTIME_ORDER,
    format_table,
    make_dataset,
    prepare_quantized,
    ratio,
)
from repro.errors import ConfigurationError
from repro.study import Profile, run_study

MNIST = Profile(tasks=("mnist",))


class TestReporting:
    def test_format_table_basic(self):
        out = format_table(["a", "bb"], [(1, 2.5), ("x", "y")], title="T")
        assert "T" in out and "a" in out and "2.5" in out

    def test_row_width_mismatch(self):
        with pytest.raises(ConfigurationError):
            format_table(["a"], [(1, 2)])

    def test_ratio(self):
        assert ratio(3.0, 1.5) == "2.00x"
        assert ratio(1.0, 0.0) == "inf"


class TestTable1:
    def test_matches_paper_exactly(self):
        rows = {r["block_size"]: r for r in run_study("table1").table}
        for block, (comp_bytes, reduction) in PAPER_TABLE1.items():
            assert rows[block]["compressed_bytes"] == comp_bytes
            assert rows[block]["reduction_pct"] / 100 == pytest.approx(
                reduction, abs=1e-3
            )

    def test_render_contains_all_blocks(self):
        text = run_study("table1").render()
        for block in PAPER_TABLE1:
            assert str(block) in text


class TestFig7:
    @pytest.fixture(scope="class")
    def mnist_run(self):
        return run_study("fig7", profile=MNIST)

    @staticmethod
    def _rows(run, regime):
        return {r["runtime"]: r for r in run.table
                if r["regime"] == regime}

    def test_all_runtimes_present(self, mnist_run):
        assert set(self._rows(mnist_run, "continuous")) == set(RUNTIME_ORDER)
        assert set(self._rows(mnist_run, "intermittent")) == set(RUNTIME_ORDER)

    def test_speedup_helpers(self, mnist_run):
        """ACE+FLEX beats SONIC: continuous time, intermittent active
        time, and intermittent energy."""
        cont = self._rows(mnist_run, "continuous")
        inter = self._rows(mnist_run, "intermittent")
        assert cont["SONIC"]["wall_ms"] / cont["ACE+FLEX"]["wall_ms"] > 1.0
        assert inter["SONIC"]["active_ms"] / inter["ACE+FLEX"]["active_ms"] > 1.0
        assert inter["SONIC"]["energy_mj"] / inter["ACE+FLEX"]["energy_mj"] > 1.0

    def test_dnf_speedup_is_none(self, mnist_run):
        """BASE never finishes on harvested power: no speedup to report."""
        base = self._rows(mnist_run, "intermittent")["BASE"]
        assert not base["completed"]
        (line,) = [line for line in mnist_run.render().splitlines()
                   if "| BASE" in line and "DNF" in line]
        assert line.split("|")[4].strip() == "-"  # the "active vs FLEX" cell

    def test_renderers(self, mnist_run):
        text = mnist_run.render()
        assert "DNF" in text
        assert "ACE+FLEX" in text
        assert "LEA" in text


class TestFig8:
    @pytest.fixture(scope="class")
    def points(self):
        """The study's rows keyed like ``BLOCK_SIZES`` (dense is None)."""
        return {r["block_size"] or None: r for r in run_study("fig8").table}

    def test_all_variants(self, points):
        assert set(points) == set(BLOCK_SIZES)

    def test_latency_monotone_in_block_size(self, points):
        """Bigger BCM blocks => faster FC1 (the paper's Figure 8 trend)."""
        lat = [points[b]["latency_ms"] for b in (None, 32, 64, 128)]
        assert lat == sorted(lat, reverse=True)

    def test_energy_monotone_in_block_size(self, points):
        en = [points[b]["energy_uj"] for b in (None, 32, 64, 128)]
        assert en == sorted(en, reverse=True)

    def test_weights_shrink(self, points):
        assert (points[128]["weight_bytes"] < points[32]["weight_bytes"]
                < points[None]["weight_bytes"])

    def test_render(self):
        assert "BCM 128" in run_study("fig8").render()


class TestCheckpointOverheadExperiment:
    def test_rows_and_bounds(self):
        run = run_study("overhead", profile=MNIST)
        (row,) = run.table
        assert row["task"] == "mnist"
        assert row["completed"]
        assert row["worst_ckpt_mj"] <= 0.033
        assert 0.0 < row["total_overhead"] < 0.10
        assert "MNIST" in run.render()


class TestAblations:
    def test_overflow_ablation_story(self):
        run = run_study("ablation-overflow")
        rows = {r["mode"]: r for r in run.table}
        assert rows["stage"]["overflow_events"] == 0
        assert rows["none"]["overflow_events"] > 0
        assert rows["none"]["max_rel_error"] > rows["stage"]["max_rel_error"]
        assert "A1" in run.render()

    def test_buffer_ablation(self):
        run = run_study("ablation-buffers",
                        profile=Profile(tasks=("mnist", "okg")))
        for row in run.table:
            assert row["circular_bytes"] <= row["per_layer_bytes"]
            assert 1.0 - row["circular_bytes"] / row["per_layer_bytes"] > 0.2
        assert "Circular" in run.render()

    def test_dma_ablation(self):
        run = run_study("ablation-dma", profile=MNIST)
        (row,) = run.table
        assert row["cpu_ms"] / row["dma_ms"] > 1.0  # DMA must beat CPU copies
        assert row["cpu_mj"] / row["dma_mj"] > 1.0
        assert "DMA" in run.render()


class TestCommonHelpers:
    def test_prepare_quantized_variants(self):
        comp = prepare_quantized("mnist", seed=0)
        dense = prepare_quantized("mnist", compressed=False, seed=0)
        assert comp.weight_bytes < dense.weight_bytes

    def test_unknown_task(self):
        with pytest.raises(ConfigurationError):
            make_dataset("imagenet", 10)

    def test_unknown_runtime(self):
        from repro.experiments import make_runtime

        with pytest.raises(ConfigurationError):
            make_runtime("ZEUS", prepare_quantized("mnist"))
