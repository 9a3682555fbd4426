"""Unified Study API: declarative, fleet-executed, serializable studies.

This package is the single front door to every experiment in the repo:

* :class:`ResultTable` — a typed, columnar result container with a
  declared schema, filtering / group-by / percentile aggregation, and
  lossless (bit-identical) JSON and NPZ round-trips.  Every study
  appends its rows to one directly, and it is the payload
  :class:`~repro.fleet.report.FleetReport` is built on.
* :class:`Study` — a frozen, registered experiment spec: a name, either
  ``run(ctx)`` or ``scenarios(ctx)``+``collect(...)``, and
  ``render(table)``.  Scenario-shaped studies execute through
  :class:`~repro.fleet.runner.FleetRunner`, so Figure 7, the sweeps, the
  checkpoint-overhead measurement, and the fleet study all get
  ``engine="fast"``, multiprocessing, and shared model caching from one
  code path.
* :func:`run_study` — the single executor::

      from repro.study import run_study

      run = run_study("fig7", engine="fast")
      print(run.render())
      payload = run.table.to_json()   # lossless; from_json() restores it

``python -m repro run <study>`` and ``python -m repro list`` are the CLI
faces of the same registry, and the only way to run a study from the
shell.
"""

from repro.study.core import (
    Profile,
    Study,
    StudyContext,
    StudyRun,
    check_study_options,
    get_study,
    register,
    run_study,
    study_names,
)
from repro.study.table import DTYPES, Column, ResultTable, percentile

__all__ = [
    "Column",
    "DTYPES",
    "percentile",
    "Profile",
    "ResultTable",
    "Study",
    "StudyContext",
    "StudyRun",
    "check_study_options",
    "get_study",
    "register",
    "run_study",
    "study_names",
]
