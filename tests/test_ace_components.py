"""Tests for ACE's circular-buffer planner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ace import circular_plan, per_layer_plan
from repro.errors import ConfigurationError


class TestCircularBuffers:
    IO = [784, 3456, 3456, 864, 1024, 1024, 256, 256, 256, 10]

    def test_circular_uses_two_buffers(self):
        plan = circular_plan(self.IO)
        assert len(plan.buffer_sizes) == 2
        assert plan.total_bytes == 2 * max(self.IO) * 2

    def test_assignments_alternate(self):
        plan = circular_plan(self.IO)
        for i, (src, dst) in enumerate(plan.assignments):
            assert src != dst
            assert src == i % 2

    def test_per_layer_sums_everything(self):
        plan = per_layer_plan(self.IO)
        assert plan.total_bytes == sum(s * 2 for s in self.IO)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            circular_plan([])
        with pytest.raises(ConfigurationError):
            per_layer_plan([0, 10])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=5000), min_size=2, max_size=12))
def test_property_circular_exact_relationship(io_sizes):
    """Circular = 2*max, per-layer = sum: circular wins exactly when the
    model is deep enough that the sum exceeds twice the peak."""
    circ = circular_plan(io_sizes).total_bytes
    naive = per_layer_plan(io_sizes).total_bytes
    assert circ == 2 * max(io_sizes) * 2
    assert naive == sum(io_sizes) * 2
    if sum(io_sizes) >= 2 * max(io_sizes):
        assert circ <= naive
