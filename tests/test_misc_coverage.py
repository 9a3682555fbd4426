"""Coverage for helpers not exercised elsewhere: module utilities,
dataset rendering primitives, fig7 helpers, search enumeration, CLI paths."""

import numpy as np
import pytest

from repro.cli import main
from repro.datasets.common import (
    balanced_labels,
    draw_polyline,
    draw_segment,
    jitter_points,
)
from repro.experiments import PAPER_FIG7A_SPEEDUPS, PAPER_FIG7B_SPEEDUPS, TASKS
from repro.nn import Dense, Parameter, Sequential
from repro.nn.module import (
    nonzero_parameter_count,
    parameter_count,
    state_dict,
    zero_grads,
)
from repro.rad.search import enumerate_block_candidates


class TestModuleHelpers:
    def test_zero_grads(self):
        p = Parameter(np.ones(3))
        p.grad += 5.0
        zero_grads([p])
        assert np.all(p.grad == 0)

    def test_parameter_counts_with_mask(self):
        p = Parameter(np.ones((4, 4)))
        assert parameter_count([p]) == 16
        mask = np.ones((4, 4)); mask[0] = 0
        p.set_mask(mask)
        assert nonzero_parameter_count([p]) == 12
        assert parameter_count([p]) == 16  # mask does not change raw count

    def test_state_dict_keys(self):
        model = Sequential([Dense(3, 2)])
        sd = state_dict(model.parameters())
        assert any("dense.weight" in k for k in sd)

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

    def test_polyline_connects(self):
        img = np.zeros((16, 16))
        draw_polyline(img, [(1, 1), (14, 1), (14, 14)])
        assert img[1, 7] > 0.5  # mid of first stroke (row y=1? x=7)

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


class TestSearchEnumeration:
    def test_candidates_unique(self):
        for task in TASKS:
            cands = enumerate_block_candidates(task)
            keys = [c.bcm_blocks for c in cands]
            assert len(keys) == len(set(keys))

    def test_paper_config_present(self):
        from repro.rad.zoo import PAPER_BLOCKS

        for task in TASKS:
            cands = enumerate_block_candidates(task)
            assert PAPER_BLOCKS[task] in [c.bcm_blocks for c in cands]

    def test_explicit_options_respected(self):
        cands = enumerate_block_candidates("mnist", [[64, 32]])
        assert {c.bcm_blocks for c in cands} == {(64,), (32,)}

    def test_wrong_option_count_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            enumerate_block_candidates("har", [[64]])


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
