"""ACE — accelerator-enabled embedded inference software."""

from repro.ace.buffers import (
    BufferPlan,
    circular_plan,
    per_layer_plan,
)
from repro.ace.plan import (
    PlanConfig,
    bcm_atoms,
    build_program,
    conv_atoms,
    dense_atoms,
    pool_atoms,
    relu_atoms,
)
from repro.ace.runtime import AceRuntime

__all__ = [
    "AceRuntime",
    "BufferPlan",
    "PlanConfig",
    "bcm_atoms",
    "build_program",
    "circular_plan",
    "conv_atoms",
    "dense_atoms",
    "per_layer_plan",
    "pool_atoms",
    "relu_atoms",
]
