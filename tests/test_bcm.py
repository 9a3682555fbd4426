"""Tests for BCM algebra and compression accounting (Table I)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bcm import bcm_fc_bytes, bcm_matvec, bcm_to_dense, compression_table, dense_fc_bytes
from repro.errors import ConfigurationError


class TestCirculant:
    def test_structure(self):
        c = bcm_to_dense(np.array([[[1.0, 2.0, 3.0]]]))
        np.testing.assert_array_equal(c, [[1, 3, 2], [2, 1, 3], [3, 2, 1]])

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            bcm_matvec(np.ones((1, 1, 4)), np.ones(5))


class TestBlockOps:
    def test_bcm_matvec_matches_dense(self):
        rng = np.random.default_rng(3)
        weights = rng.normal(size=(2, 4, 8))
        x = rng.normal(size=(5, 32))
        ref = x @ bcm_to_dense(weights).T
        np.testing.assert_allclose(bcm_matvec(weights, x), ref, atol=1e-10)


class TestTable1:
    """Table I of the paper: 512x512 FC layer, block sizes 16..256."""

    def test_dense_kernel_bytes(self):
        # Paper counts float32 weights; device stores int16.
        assert dense_fc_bytes(512, 512, 4) == 1048576
        assert dense_fc_bytes(512, 512) == 524288

    @pytest.mark.parametrize(
        "block,expected_bytes,expected_reduction",
        [
            (16, 65536, 0.9375),
            (32, 32768, 0.9687),
            (64, 16384, 0.9843),
            (128, 8192, 0.9921),
            (256, 4096, 0.9960),
        ],
    )
    def test_rows_match_paper(self, block, expected_bytes, expected_reduction):
        assert bcm_fc_bytes(512, 512, block, 4) == expected_bytes
        row = [r for r in compression_table() if r.block_size == block][0]
        assert row.compressed_bytes == expected_bytes
        assert row.storage_reduction == pytest.approx(expected_reduction, abs=1e-4)

    def test_table_monotone(self):
        rows = compression_table()
        reductions = [r.storage_reduction for r in rows]
        assert reductions == sorted(reductions)

    def test_invalid_block(self):
        with pytest.raises(ConfigurationError):
            bcm_fc_bytes(512, 512, 96)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10 ** 6))
def test_property_matvec_linearity(scale, seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(2, 2, 4))
    x = rng.normal(size=8)
    np.testing.assert_allclose(
        bcm_matvec(w, scale * x), scale * bcm_matvec(w, x), atol=1e-9
    )
