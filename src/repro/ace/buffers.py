"""Circular-buffer memory planning (Section III-B, Figure 5).

A naive deployment allocates one activation buffer per layer; ACE instead
ping-pongs two buffers sized by the largest layer IO, overwriting the
input buffer once a layer completes.  Both planners are provided so the
A2 ablation can quantify the saving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import ConfigurationError

BYTES_PER_VALUE = 2


@dataclass(frozen=True)
class BufferPlan:
    """Resolved activation-buffer layout."""

    strategy: str  # "circular" or "per-layer"
    total_bytes: int
    #: For each compute step, (input_buffer_id, output_buffer_id).
    assignments: Tuple[Tuple[int, int], ...]
    buffer_sizes: Tuple[int, ...]  # bytes per buffer id


def circular_plan(layer_io_elems: Sequence[int]) -> BufferPlan:
    """ACE's two-buffer ping-pong plan.

    ``layer_io_elems`` holds the element count flowing *out* of each layer
    (the input of layer 0 is element 0's predecessor and is counted too by
    passing it first).  Buffer 0 and 1 alternate as input/output.
    """
    sizes = [int(e) for e in layer_io_elems]
    if not sizes or any(s <= 0 for s in sizes):
        raise ConfigurationError("layer IO sizes must be positive")
    peak = max(sizes) * BYTES_PER_VALUE
    assignments = []
    for i in range(len(sizes) - 1):
        assignments.append((i % 2, (i + 1) % 2))
    return BufferPlan(
        strategy="circular",
        total_bytes=2 * peak,
        assignments=tuple(assignments),
        buffer_sizes=(peak, peak),
    )


def per_layer_plan(layer_io_elems: Sequence[int]) -> BufferPlan:
    """The naive plan: one dedicated buffer per layer boundary."""
    sizes = [int(e) * BYTES_PER_VALUE for e in layer_io_elems]
    if not sizes or any(s <= 0 for s in sizes):
        raise ConfigurationError("layer IO sizes must be positive")
    assignments = tuple((i, i + 1) for i in range(len(sizes) - 1))
    return BufferPlan(
        strategy="per-layer",
        total_bytes=sum(sizes),
        assignments=assignments,
        buffer_sizes=tuple(sizes),
    )
