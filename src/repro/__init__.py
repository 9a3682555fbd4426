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

__version__ = "1.0.0"

from repro.errors import (
    CheckpointError,
    ConfigurationError,
    InferenceAborted,
    PowerFailureError,
    QuantizationError,
    ReproError,
    ResourceExceededError,
)

__all__ = [
    "CheckpointError",
    "ConfigurationError",
    "InferenceAborted",
    "PowerFailureError",
    "QuantizationError",
    "ReproError",
    "ResourceExceededError",
    "__version__",
]
