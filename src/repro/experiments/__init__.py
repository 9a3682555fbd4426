"""Shared experiment building blocks and the paper's published numbers.

The registered studies (:mod:`repro.study.studies`) are the one
implementation of each paper artifact and compute their tables
themselves.  This package holds what they, the benchmarks, and the
examples share: the testbed helpers in ``common`` (``prepare_quantized``,
``make_dataset``, ``run_inference``), the paper constants (``PAPER_*``),
the worst-case checkpoint bound, reporting helpers, and the deployment
planner.  See DESIGN.md's experiment index for the mapping to paper
artifacts."""

from repro.experiments.checkpoint_overhead import (
    PAPER_MAX_COST_MJ,
    PAPER_OVERHEAD,
    worst_case_checkpoint_mj,
)
from repro.experiments.common import (
    FAST,
    FULL,
    RUNTIME_ORDER,
    TASKS,
    ExperimentProfile,
    make_dataset,
    make_runtime,
    paper_harvester,
    prepare_quantized,
    run_all_runtimes,
    run_inference,
)
from repro.experiments.fig7 import (
    PAPER_FIG7A_SPEEDUPS,
    PAPER_FIG7B_SPEEDUPS,
    PAPER_FIG7C_SAVINGS,
)
from repro.experiments.fig8 import BLOCK_SIZES
from repro.experiments.planner import DeploymentPlan, plan_deployment
from repro.experiments.reporting import ascii_voltage_plot, format_table, ratio
from repro.experiments.table1 import PAPER_TABLE1
from repro.experiments.table2 import PAPER_ACCURACY

__all__ = [
    "BLOCK_SIZES",
    "ExperimentProfile",
    "FAST",
    "FULL",
    "PAPER_ACCURACY",
    "PAPER_FIG7A_SPEEDUPS",
    "PAPER_FIG7B_SPEEDUPS",
    "PAPER_FIG7C_SAVINGS",
    "PAPER_MAX_COST_MJ",
    "PAPER_OVERHEAD",
    "PAPER_TABLE1",
    "RUNTIME_ORDER",
    "plan_deployment",
    "TASKS",
    "DeploymentPlan",
    "ascii_voltage_plot",
    "format_table",
    "make_dataset",
    "make_runtime",
    "paper_harvester",
    "prepare_quantized",
    "ratio",
    "run_all_runtimes",
    "run_inference",
    "worst_case_checkpoint_mj",
]
