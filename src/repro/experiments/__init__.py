"""Shared experiment building blocks and the paper's published numbers.

The registered studies (:mod:`repro.study.studies`) are the one
implementation of each paper artifact and compute their tables
themselves.  This package holds what they, the benchmarks, and the
examples share: the testbed helpers in ``common`` (``prepare_quantized``,
``make_dataset``, ``run_inference``), the paper constants (``PAPER_*``),
the worst-case checkpoint bound, reporting helpers, and the deployment
planner.  See DESIGN.md's experiment index for the mapping to paper
artifacts."""

from repro import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "checkpoint_overhead": (
        "PAPER_MAX_COST_MJ", "PAPER_OVERHEAD", "worst_case_checkpoint_mj"),
    "common": (
        "FAST", "FULL", "RUNTIME_ORDER", "TASKS", "ExperimentProfile",
        "make_dataset", "make_runtime", "paper_harvester",
        "prepare_quantized", "run_all_runtimes", "run_inference"),
    "fig7": (
        "PAPER_FIG7A_SPEEDUPS", "PAPER_FIG7B_SPEEDUPS", "PAPER_FIG7C_SAVINGS"),
    "fig8": ("BLOCK_SIZES",),
    "planner": ("DeploymentPlan", "plan_deployment"),
    "reporting": ("ascii_voltage_plot", "format_table", "ratio"),
    "table1": ("PAPER_TABLE1",),
    "table2": ("PAPER_ACCURACY",),
})
