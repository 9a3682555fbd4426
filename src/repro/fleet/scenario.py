"""Declarative scenario specifications.

A :class:`Scenario` describes one deployment cell — *which device
configuration, under which power conditions, running which runtime on
which model, over which sample stream* — entirely as data.  Scenarios are
frozen, hashable, and picklable, so a fleet run is just a list of specs
handed to :class:`~repro.fleet.runner.FleetRunner`; nothing about the
execution is encoded in imperative per-experiment scripts.

The power supply is itself declarative: a :class:`TraceSpec` names one of
the :mod:`repro.power.traces` profiles plus its parameters, and
``build()`` instantiates the real :class:`~repro.power.traces.PowerTrace`
inside whichever process executes the scenario.  This keeps specs tiny on
the wire (multiprocessing pickles them to workers) and keeps stochastic
traces reproducible — the trace seed travels with the spec.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.power import (
    CORPUS,
    Capacitor,
    ConstantTrace,
    EnergyHarvester,
    PowerTrace,
    SolarTrace,
    SquareWaveTrace,
    StochasticRFTrace,
)

#: Trace kinds understood by :class:`TraceSpec`.
TRACE_KINDS = ("constant", "square", "rf", "solar", "corpus", "mains")

#: Which fields each kind interprets (``kind``/``power_w`` always count,
#: except for ``"mains"``, which interprets nothing — tethered power).
_USED_FIELDS = {
    "constant": frozenset(),
    "square": frozenset({"period_s", "duty"}),
    "rf": frozenset({"period_s", "duty", "seed"}),
    "solar": frozenset({"period_s"}),
    "corpus": frozenset({"seed", "corpus"}),
    "mains": frozenset(),
}


@dataclass(frozen=True)
class TraceSpec:
    """Declarative power-trace description.

    ``kind`` selects the profile; the remaining fields are interpreted per
    kind:

    * ``"constant"`` — steady ``power_w``.
    * ``"square"``   — the paper's function-generator profile:
      ``power_w`` during the first ``duty`` fraction of each ``period_s``.
    * ``"rf"``       — bursty ambient-RF harvesting with mean power
      ``power_w``, mean on-time ``duty * period_s`` and mean off-time
      ``(1 - duty) * period_s``, pre-generated from ``seed``.
    * ``"solar"``    — clipped sinusoid peaking at ``power_w`` every
      ``period_s``.
    * ``"corpus"``   — the named :data:`repro.power.CORPUS` entry
      ``corpus``, rendered under ``seed`` in whichever process runs the
      scenario; ``power_w > 0`` rescales the rendering to that mean
      power (``power_w = 0`` keeps the entry's native scale).
    * ``"mains"``    — tethered, continuous power: the scenario's device
      gets *no* harvester at all (``build_harvester()`` returns
      ``None``), so execution never browns out.  This is how
      continuous-power experiments (Figure 7(a)/(c)) are expressed as
      fleet scenarios.  ``power_w`` and the capacitor are meaningless
      and must stay at their defaults.

    ``power_w`` left unset resolves per kind: 5 mW for the analytic
    profiles (the testbed's level), *native scale* (0) for corpus
    entries — a terse corpus spec must not silently renormalize every
    entry to one level and flatten the supply-level axis — and 0 for
    ``mains`` (unlimited by definition; a non-zero value is rejected).

    A field the selected kind does *not* interpret must be left at its
    default: a non-default value is rejected at construction.  Silently
    ignoring it would let a grid sweep (say, RF seeds applied to a
    square-wave axis) collapse into duplicate cells that differ only in
    name — a bug that shows up as suspiciously tight fleet
    distributions, not as an error.
    """

    kind: str = "square"
    power_w: Optional[float] = None
    period_s: float = 0.05
    duty: float = 0.3
    seed: int = 0
    corpus: str = ""

    def __post_init__(self) -> None:
        if self.kind not in TRACE_KINDS:
            raise ConfigurationError(
                f"unknown trace kind {self.kind!r} (expected one of {TRACE_KINDS})"
            )
        if self.power_w is None:  # per-kind default, see class docstring
            object.__setattr__(
                self, "power_w",
                0.0 if self.kind in ("corpus", "mains") else 5e-3)
        if self.kind == "mains" and self.power_w != 0.0:
            raise ConfigurationError(
                "mains supplies are unlimited by definition; power_w "
                f"{self.power_w!r} would be silently ignored"
            )
        if self.power_w < 0 or self.period_s <= 0 or not 0.0 < self.duty <= 1.0:
            raise ConfigurationError(
                f"invalid trace spec (power={self.power_w}, "
                f"period={self.period_s}, duty={self.duty})"
            )
        used = _USED_FIELDS[self.kind]
        for name, default in _DEFAULTS.items():
            if name not in used and getattr(self, name) != default:
                raise ConfigurationError(
                    f"{self.kind!r} traces do not use {name!r} "
                    f"(got {getattr(self, name)!r}); a non-default value "
                    "would silently produce a duplicate scenario"
                )
        if self.kind == "rf" and self.duty >= 1.0:
            # Fail at construction, not in a worker's build(): an RF trace
            # needs a non-zero mean off-time.
            raise ConfigurationError("rf traces need duty < 1.0")
        if self.seed < 0:
            # Same fail-fast stance: numpy rejects negative rng seeds,
            # but only once build() runs inside a worker.
            raise ConfigurationError(f"trace seed must be >= 0, got {self.seed}")
        if self.kind == "corpus" and not self.corpus:
            raise ConfigurationError(
                "corpus traces need an entry name (e.g. "
                "TraceSpec('corpus', corpus='rf-markov')); unknown names "
                "fail in build() against the live registry"
            )

    def build(self) -> PowerTrace:
        """Instantiate the concrete :class:`PowerTrace`."""
        if self.kind == "mains":
            raise ConfigurationError(
                "mains supplies have no power trace: the device runs "
                "tethered (Scenario.build_harvester() returns None)"
            )
        if self.kind == "constant":
            return ConstantTrace(self.power_w)
        if self.kind == "square":
            return SquareWaveTrace(self.power_w, self.period_s, self.duty)
        if self.kind == "rf":
            return StochasticRFTrace(
                self.power_w,
                mean_on_s=self.duty * self.period_s,
                mean_off_s=(1.0 - self.duty) * self.period_s,
                seed=self.seed,
            )
        if self.kind == "corpus":
            trace = CORPUS.get(self.corpus, seed=self.seed)
            if self.power_w > 0.0:
                trace = trace.scale_to_mean_power(self.power_w)
            return trace
        return SolarTrace(self.power_w, period_s=self.period_s)

    def label(self) -> str:
        """Short distinguishing tag (used in scenario names).

        Non-default period/duty (and, where used, a non-zero seed) are
        appended so that grids sweeping those axes — e.g. a fleet on
        i.i.d. RF supplies with different seeds — get unique scenario
        names, which the runner requires.
        """
        if self.kind == "mains":
            return "mains"
        if self.kind == "corpus":
            parts = [f"corpus:{self.corpus}"]
            if self.power_w > 0.0:
                parts.append(f"{self.power_w * 1e3:g}mW")
        else:
            parts = [f"{self.kind}@{self.power_w * 1e3:g}mW"]
            if self.period_s != 0.05:
                parts.append(f"p{self.period_s * 1e3:g}ms")
            if self.duty != 0.3:
                parts.append(f"d{self.duty * 100:g}")
        if self.seed != 0:
            parts.append(f"s{self.seed}")
        return "-".join(parts)


#: Defaults of the per-kind-ignorable fields, derived from the dataclass
#: definition itself so the rejection logic cannot drift from the field
#: declarations.
_DEFAULTS = {
    f.name: f.default
    for f in dataclasses.fields(TraceSpec)
    if f.name in ("period_s", "duty", "seed", "corpus")
}


@dataclass(frozen=True)
class Scenario:
    """One cell of a fleet study: device x supply x runtime x stream.

    All fields are plain data, so scenarios can be generated in bulk by
    :func:`~repro.fleet.grid.scenario_grid`, pickled to worker processes,
    and compared for equality in tests.  ``seed`` drives the sample
    stream; ``model_seed`` (together with the model-shape fields) drives
    model construction and is the cache key for shared
    :func:`~repro.experiments.common.prepare_quantized` artifacts.
    """

    name: str
    task: str = "mnist"
    runtime: str = "ACE+FLEX"
    trace: TraceSpec = field(default_factory=TraceSpec)
    cap_uf: float = 100.0
    n_samples: int = 4
    seed: int = 0
    model_seed: int = 0
    compressed: bool = True
    pruned: bool = True
    calib_n: int = 16
    stall_limit: int = 6
    give_up_after_dnf: int = 2
    v_warn: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ConfigurationError("n_samples must be >= 1")
        if self.cap_uf <= 0:
            raise ConfigurationError("cap_uf must be positive")
        if self.trace.kind == "mains" and self.cap_uf != 100.0:
            # Tethered devices have no capacitor in the loop; accepting a
            # swept cap_uf here would let a capacitor axis crossed with a
            # mains regime collapse into identical cells under distinct
            # names (the TraceSpec ignored-field stance, one level up).
            raise ConfigurationError(
                f"mains scenarios have no capacitor; cap_uf {self.cap_uf!r} "
                "would be silently ignored (leave it at the default)"
            )

    @property
    def model_key(self) -> Tuple:
        """Cache key: scenarios sharing it run the identical model."""
        return (self.task, self.compressed, self.pruned, self.model_seed,
                self.calib_n)

    @property
    def dataset_key(self) -> Tuple[str, int, int]:
        """Stream key: the ``make_dataset(task, n, seed)`` arguments.

        Scenarios sharing it run over the identical input stream, so one
        fleet run draws it once (see
        :class:`~repro.fleet.runner.FleetRunner`).
        """
        return (self.task, max(self.n_samples, 16), self.seed)

    def build_harvester(self) -> Optional[EnergyHarvester]:
        """The scenario's supply: its trace into its capacitor.

        ``None`` for ``mains`` scenarios — the device runs tethered, on
        continuous power, with no capacitor in the loop.
        """
        if self.trace.kind == "mains":
            return None
        # Divide rather than multiply by 1e-6: x / 1e6 is the correctly
        # rounded quotient, which equals the decimal literal (100 / 1e6
        # == 100e-6 bit-for-bit), so scenario supplies match experiment
        # code writing capacitances as literals, down to the last ulp.
        return EnergyHarvester(self.trace.build(), Capacitor(self.cap_uf / 1e6))
