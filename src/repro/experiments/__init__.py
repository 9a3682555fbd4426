"""Experiment drivers and the paper's published numbers.

The registered studies (:mod:`repro.study.studies`) are the one
implementation of each paper artifact; the direct ones call the
``run_*`` drivers here.  See DESIGN.md's experiment index for the
mapping to paper artifacts."""

from repro.experiments.ablations import (
    run_compression_ablation,
    run_buffer_ablation,
    run_vwarn_ablation,
    run_dma_ablation,
    run_overflow_ablation,
)
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
from repro.experiments.fig8 import BLOCK_SIZES, Fig8Point, run_fig8
from repro.experiments.planner import DeploymentPlan, plan_deployment
from repro.experiments.reporting import ascii_voltage_plot, format_table, ratio
from repro.experiments.table1 import PAPER_TABLE1, run_table1
from repro.experiments.table2 import (
    PAPER_ACCURACY,
    Table2Row,
    run_table2,
)

__all__ = [
    "BLOCK_SIZES",
    "ExperimentProfile",
    "FAST",
    "FULL",
    "Fig8Point",
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
    "Table2Row",
    "DeploymentPlan",
    "ascii_voltage_plot",
    "format_table",
    "make_dataset",
    "make_runtime",
    "paper_harvester",
    "prepare_quantized",
    "ratio",
    "run_all_runtimes",
    "run_buffer_ablation",
    "run_dma_ablation",
    "run_fig8",
    "run_inference",
    "run_overflow_ablation",
    "run_vwarn_ablation",
    "run_compression_ablation",
    "run_table1",
    "run_table2",
    "worst_case_checkpoint_mj",
]
