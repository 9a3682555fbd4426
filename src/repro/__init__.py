"""repro — reproduction of *Enabling Fast Deep Learning on Tiny
Energy-Harvesting IoT Devices* (Islam et al., DATE 2022).

The package is organized around the paper's three systems plus the
substrates they need:

* :mod:`repro.rad` — resource-aware training/compression (BCM + ADMM
  structured pruning + normalization + 16-bit quantization), built on the
  numpy DNN framework in :mod:`repro.nn` and the circulant algebra in
  :mod:`repro.bcm`.
* :mod:`repro.ace` — accelerator-enabled inference runtime executing on the
  simulated MSP430FR5994 in :mod:`repro.hw` with fixed-point kernels from
  :mod:`repro.fixedpoint`.
* :mod:`repro.flex` — intermittent-computation support (state-bit + loop
  index checkpointing), evaluated against the :mod:`repro.baselines`
  (BASE/SONIC/TAILS) on the energy-harvesting supply of :mod:`repro.power`
  via the simulator in :mod:`repro.sim`.

Three layers sit above the paper systems:

* :mod:`repro.experiments` — the building blocks the studies share
  (model preparation, datasets, single inferences), the paper's
  published numbers, and deployment planning.
* :mod:`repro.fleet` — the fleet-scale scenario engine: declarative
  scenario grids executed in parallel across worker processes, with
  shared model caching and distribution-level reporting.
* :mod:`repro.study` — the unified study API: every experiment is a
  registered, declarative :class:`~repro.study.core.Study` executed by
  :func:`~repro.study.core.run_study` (scenario-shaped studies route
  through the fleet engine) and returning a typed, losslessly
  serializable :class:`~repro.study.table.ResultTable`.  The CLI
  (:mod:`repro.cli`, ``python -m repro run <study>``) is its shell face.

See ``README.md`` for the project tour and ``DESIGN.md`` for the full
system inventory and experiment index.
"""

import importlib
import sys
from typing import Callable, Dict, List, Tuple

__version__ = "1.0.0"

#: Version of the simulated bits: every study table and scenario result
#: the package computes.  Result-store and service cache keys carry it
#: instead of ``__version__``, so a change that alters any line of
#: ``tests/golden/study_digests.txt`` bumps it and every result stored
#: under the old bits misses.
SIM_SEMANTICS = 1

# The option vocabulary.  The study registry, the CLI and the service
# client check options against these names without importing the
# layers that implement them (DESIGN.md, "The import rule").

#: Tasks of the evaluation (Table II).
TASKS = ("mnist", "har", "okg")
#: Display order of the evaluated runtimes (Figure 7's x axis).
RUNTIME_ORDER = ("BASE", "SONIC", "TAILS", "ACE", "ACE+FLEX")
#: Engine names understood by :func:`~repro.sim.fastsim.make_machine` and
#: the session/fleet/CLI ``engine=`` flags.
ENGINES = ("reference", "fast")
#: Accepted fleet failure policies (see :meth:`~repro.fleet.runner.
#: FleetRunner.run`).
ON_ERROR = ("raise", "record")

from repro.errors import (
    ConfigurationError,
    InferenceAborted,
    PowerFailureError,
    QuantizationError,
    ReproError,
    ResourceExceededError,
)

__all__ = [
    "ENGINES",
    "ON_ERROR",
    "RUNTIME_ORDER",
    "TASKS",
    "ConfigurationError",
    "InferenceAborted",
    "PowerFailureError",
    "QuantizationError",
    "ReproError",
    "ResourceExceededError",
    "SIM_SEMANTICS",
    "__version__",
]


def lazy_exports(
    package: str, exports: Dict[str, Tuple[str, ...]],
) -> Tuple[Callable[[str], object], List[str]]:
    """A package's PEP 562 ``__getattr__`` and its ``__all__``.

    ``exports`` maps each submodule to the public names the package
    re-exports from it.  A name's submodule is imported on the name's
    first use, not when the package is, so importing one light
    submodule (``repro.experiments.reporting``) never runs a heavy
    sibling (``repro.experiments.common``).
    """
    where = {name: f"{package}.{module}"
             for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name not in where:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(where[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__, sorted(where)
