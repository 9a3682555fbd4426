"""Coverage for helpers not exercised elsewhere: module utilities,
dataset rendering primitives, fig7 helpers, CLI paths."""

import numpy as np
import pytest

from repro.cli import main
from repro.datasets.common import balanced_labels, draw_segment, jitter_points
from repro.experiments import PAPER_FIG7A_SPEEDUPS, PAPER_FIG7B_SPEEDUPS, TASKS
from repro.nn import Parameter
from repro.nn.module import nonzero_parameter_count, parameter_count


class TestModuleHelpers:
    def test_parameter_counts_with_mask(self):
        p = Parameter(np.ones((4, 4)))
        assert parameter_count([p]) == 16
        mask = np.ones((4, 4)); mask[0] = 0
        p.set_mask(mask)
        assert nonzero_parameter_count([p]) == 12
        assert parameter_count([p]) == 16  # mask does not change raw count

    def test_parameter_repr(self):
        assert "shape" in repr(Parameter(np.zeros((2, 3))))

    def test_mask_shape_mismatch(self):
        from repro.errors import ConfigurationError

        p = Parameter(np.zeros((2, 2)))
        with pytest.raises(ConfigurationError):
            p.set_mask(np.ones((3, 3)))


class TestDatasetPrimitives:
    def test_draw_segment_marks_pixels(self):
        img = np.zeros((16, 16))
        draw_segment(img, (2, 2), (12, 12))
        assert img.max() > 0.9
        assert img[2, 2] > 0.5  # endpoint covered (x, y) order

    def test_degenerate_segment_is_a_dot(self):
        img = np.zeros((8, 8))
        draw_segment(img, (4, 4), (4, 4), thickness=1.5)
        assert img[4, 4] > 0.9

    def test_jitter_preserves_count(self):
        pts = [(1.0, 2.0), (3.0, 4.0)]
        out = jitter_points(pts, np.random.default_rng(0))
        assert len(out) == 2

    def test_balanced_labels(self):
        labels = balanced_labels(30, 5, np.random.default_rng(0))
        assert np.bincount(labels, minlength=5).tolist() == [6] * 5


class TestPaperConstants:
    def test_fig7_dicts_cover_all_tasks(self):
        for task in TASKS:
            assert set(PAPER_FIG7A_SPEEDUPS[task]) == {"BASE", "SONIC", "TAILS"}
            assert set(PAPER_FIG7B_SPEEDUPS[task]) == {"SONIC", "TAILS"}

    def test_paper_speedups_all_above_one(self):
        for table in (PAPER_FIG7A_SPEEDUPS, PAPER_FIG7B_SPEEDUPS):
            for task_row in table.values():
                assert all(v > 1.0 for v in task_row.values())


class TestCliPaths:
    def test_overhead_command(self, capsys):
        assert main(["run", "overhead"]) == 0
        out = capsys.readouterr().out
        assert "MNIST" in out and "Paper bound" in out

    def test_fig7_single_task(self, capsys):
        assert main(["run", "fig7", "--task", "har"]) == 0
        out = capsys.readouterr().out
        assert "HAR" in out and "DNF" in out

    def test_sweep_power_axis(self, capsys):
        assert main(["run", "sweep-power", "--task", "mnist"]) == 0
        assert "harvest power" in capsys.readouterr().out
