"""Fleet-scale scenario engine.

Everything below :mod:`repro.sim` answers "what does *one* inference (or
one sensing session) do on one device?".  This package answers the
deployment question: how does a whole fleet of harvesters behave across
diverse power conditions?  It has four parts:

* :mod:`repro.fleet.scenario` — declarative, picklable
  :class:`Scenario`/:class:`TraceSpec` specs (device config x power trace
  x runtime x model x sample stream, described as data);
* :mod:`repro.fleet.grid` — :func:`scenario_grid` builders that sweep
  axis lists into scenario batches with deterministic seeding;
* :mod:`repro.fleet.runner` — :class:`FleetRunner`, which executes
  scenarios in parallel via ``multiprocessing`` (serial fallback
  included) with a shared :class:`ModelCache` so N scenarios pay for at
  most U <= N model preparations;
* :mod:`repro.fleet.report` — :class:`FleetReport` aggregation:
  per-runtime throughput/energy/reboot distributions, percentiles, and
  DNF rates.

``python -m repro run fleet`` drives the default grid from the shell;
``examples/fleet_study.py`` shows the library API.
"""

from repro import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "cache": ("ModelCache",),
    "grid": ("DEFAULT_RUNTIMES", "DEFAULT_TRACES", "corpus_traces",
             "default_grid", "scenario_grid", "scenario_seed"),
    "report": ("FleetReport", "ScenarioResult"),
    "runner": ("FleetRunner", "execute_scenario"),
    "scenario": ("TRACE_KINDS", "Scenario", "TraceSpec"),
})
