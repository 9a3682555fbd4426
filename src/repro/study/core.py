"""Study specs, the registry, and the single executor.

A :class:`Study` is a frozen, declarative description of one experiment:
a name, a title, and either

* ``run(ctx) -> ResultTable`` — a direct computation (Table I's algebra,
  Table II's training loop, Figure 8's isolated layer), or
* ``scenarios(ctx) -> [Scenario]`` plus ``collect(report, ctx, cache)
  -> ResultTable`` — a *fleet-executed* study: the executor expands the
  scenarios and runs them through :class:`~repro.fleet.runner.
  FleetRunner`, which is what gives every scenario-shaped artifact
  (Figure 7, the sweeps, checkpoint overhead, the fleet study itself)
  ``engine="fast"``, multiprocessing, and shared model caching for free.

Every study also declares ``render(table) -> str``, so any
:class:`~repro.study.table.ResultTable` — fresh or deserialized — can be
turned back into the paper-style text artifact.

:func:`run_study` is the one entry point the CLI, tests, and benchmarks
share::

    run = run_study("fig7", engine="fast", workers=4)
    print(run.render())
    open("fig7.json", "w").write(run.table.to_json())
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro import ENGINES, ON_ERROR, TASKS
from repro.errors import ConfigurationError
from repro.obs import metrics as _obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.cache import ModelCache
    from repro.fleet.report import FleetReport
    from repro.fleet.scenario import Scenario
    from repro.store.cache import ResultStore
    from repro.study.table import ResultTable


@dataclass(frozen=True)
class Profile:
    """Workload parameters shared by every study.

    ``tasks=None`` means "the study's own default" (all three tasks for
    the paper artifacts, MNIST for the sweeps and the fleet study).
    ``full`` selects the big training profile where one exists
    (Table II); ``samples``/``corpus`` parameterize the fleet study.
    """

    tasks: Optional[Tuple[str, ...]] = None
    seed: int = 0
    full: bool = False
    samples: int = 4
    corpus: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ConfigurationError("samples must be >= 1")
        if self.tasks is not None:
            if not self.tasks:
                raise ConfigurationError("tasks must be non-empty (or None)")
            for task in self.tasks:
                if task not in TASKS:
                    raise ConfigurationError(
                        f"unknown task {task!r} (expected one of {TASKS})"
                    )


@dataclass(frozen=True)
class StudyContext:
    """Everything a study callback may depend on: params + execution."""

    profile: Profile
    engine: str = "reference"
    workers: Optional[int] = None
    parallel: bool = True

    def tasks(self, default: Tuple[str, ...]) -> Tuple[str, ...]:
        """The profile's task list, or the study's default."""
        if self.profile.tasks is not None:
            return self.profile.tasks
        return tuple(default)


#: Per-field defaults of :class:`Profile`, for the ignored-parameter check.
_PROFILE_DEFAULTS = {f.name: f.default for f in dataclasses.fields(Profile)}


@dataclass(frozen=True)
class Study:
    """A registered, declarative experiment spec (see module docstring).

    ``params`` names the :class:`Profile` fields this study interprets;
    :func:`run_study` rejects a non-default value for any other field
    (same stance as :class:`~repro.fleet.scenario.TraceSpec`: silently
    dropping input hides mistakes).  ``engine_aware`` marks a *direct*
    study that threads ``ctx.engine`` into its own machines;
    fleet-executed studies are engine-aware by construction.
    """

    name: str
    title: str
    artifact: str = ""
    benchmark: str = ""
    params: Tuple[str, ...] = ("tasks", "seed")
    engine_aware: bool = False
    run: Optional[Callable[[StudyContext], ResultTable]] = None
    scenarios: Optional[Callable[[StudyContext], List["Scenario"]]] = None
    collect: Optional[
        Callable[["FleetReport", StudyContext, "ModelCache"], ResultTable]
    ] = None
    render: Optional[Callable[[ResultTable], str]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a study needs a name")
        for field_name in self.params:
            if field_name not in _PROFILE_DEFAULTS:
                raise ConfigurationError(
                    f"study {self.name!r} declares unknown profile field "
                    f"{field_name!r} (have {sorted(_PROFILE_DEFAULTS)})"
                )
        if (self.run is None) == (self.scenarios is None):
            raise ConfigurationError(
                f"study {self.name!r} must define exactly one of "
                "run() or scenarios()"
            )
        if self.scenarios is not None and self.collect is None:
            raise ConfigurationError(
                f"scenario study {self.name!r} needs collect()"
            )
        if self.render is None:
            raise ConfigurationError(f"study {self.name!r} needs render()")

    @property
    def fleet_executed(self) -> bool:
        """True when the executor routes this study through FleetRunner."""
        return self.scenarios is not None


_REGISTRY: Dict[str, Study] = {}


def register(study: Study) -> Study:
    """Add a study to the registry (its name must be new)."""
    if study.name in _REGISTRY:
        raise ConfigurationError(
            f"study name {study.name!r} already registered")
    _REGISTRY[study.name] = study
    return study


def _load() -> None:
    # The bundled studies register themselves on first import; user code
    # can register() more at any time.
    import repro.study.studies  # noqa: F401


def study_names() -> Tuple[str, ...]:
    """Registered study names, in registration order."""
    _load()
    return tuple(_REGISTRY)


def get_study(name: str) -> Study:
    """Look up a study by name."""
    _load()
    if name in _REGISTRY:
        return _REGISTRY[name]
    raise ConfigurationError(
        f"unknown study {name!r} (run 'repro list'; "
        f"known: {', '.join(_REGISTRY)})"
    )


@dataclass
class StudyRun:
    """Outcome of one :func:`run_study` call.

    ``report``/``cache`` are populated for fleet-executed studies only
    (the raw :class:`FleetReport` and the shared model cache, for callers
    that want execution metadata beyond the table) — and both are
    ``None`` when the whole finished table came out of the ``store``'s
    table cache, because nothing was executed.  ``store`` echoes the
    durable store the run used, with its hit/miss counters updated.
    ``obs`` is a merged :mod:`repro.obs` metrics snapshot (workers
    included) taken as the run returned — ``None`` unless observability
    was enabled.
    """

    study: Study
    table: ResultTable
    report: Optional["FleetReport"] = None
    cache: Optional["ModelCache"] = None
    store: Optional["ResultStore"] = None
    obs: Optional[dict] = None
    #: True when the finished table was served from the store's archive
    #: (nothing was executed; ``report``/``cache`` are ``None``).
    from_table_cache: bool = False

    def render(self) -> str:
        return self.study.render(self.table)


def check_study_options(
    name: str,
    *,
    engine: str = "reference",
    workers: Optional[int] = None,
    parallel: bool = True,
    profile: Optional[Profile] = None,
    on_error: str = "raise",
    cache: Optional["ModelCache"] = None,
) -> Tuple[Study, Profile]:
    """Validate one :func:`run_study` option set without executing it.

    Returns the resolved ``(study, profile)`` pair (``profile=None``
    normalizes to the default :class:`Profile`), raising
    :class:`~repro.errors.ConfigurationError` on anything
    :func:`run_study` would reject.  The service layer
    (:mod:`repro.serve`) runs this at *submit* time so a bad job fails
    the submission synchronously instead of occupying a worker.

    An option the study cannot interpret is rejected, not dropped: a
    profile field outside :attr:`Study.params` must stay at its default;
    ``workers``/``parallel``/``on_error``/``cache`` only apply to
    fleet-executed studies; a non-reference ``engine`` needs an
    engine-aware study.  (Silently ignoring ``--task har`` on a study
    that never reads tasks would print results the caller believes are
    HAR's.)
    """
    study = get_study(name)
    profile = profile if profile is not None else Profile()
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r} (expected one of {ENGINES})"
        )
    if on_error not in ON_ERROR:
        raise ConfigurationError(
            f"unknown on_error {on_error!r} (expected one of {ON_ERROR})"
        )
    if workers is not None and (
        isinstance(workers, bool) or not isinstance(workers, int)
        or workers < 1
    ):
        raise ConfigurationError("workers must be >= 1")
    for field_name, default in _PROFILE_DEFAULTS.items():
        if field_name in study.params:
            continue
        value = getattr(profile, field_name)
        if value != default:
            raise ConfigurationError(
                f"study {study.name!r} does not use {field_name!r} "
                f"(got {value!r}); a non-default value would be "
                "silently ignored"
            )
    if not study.fleet_executed:
        if workers is not None:
            raise ConfigurationError(
                f"study {study.name!r} is not fleet-executed; "
                "--workers would be silently ignored"
            )
        if not parallel:
            raise ConfigurationError(
                f"study {study.name!r} is not fleet-executed; "
                "--serial would be silently ignored"
            )
        if engine != "reference" and not study.engine_aware:
            raise ConfigurationError(
                f"study {study.name!r} does not take an engine "
                "(its computation never touches a simulation machine)"
            )
        if on_error != "raise":
            raise ConfigurationError(
                f"study {study.name!r} is not fleet-executed; "
                "on_error='record' would be silently ignored "
                "(a direct study has no per-scenario failure boundary)"
            )
        if cache is not None:
            raise ConfigurationError(
                f"study {study.name!r} is not fleet-executed; "
                "a shared model cache would be silently ignored"
            )
    return study, profile


def run_study(
    name: str,
    *,
    engine: str = "reference",
    workers: Optional[int] = None,
    parallel: bool = True,
    profile: Optional[Profile] = None,
    store: Optional["ResultStore"] = None,
    on_error: str = "raise",
    cache: Optional["ModelCache"] = None,
) -> StudyRun:
    """Execute a registered study and return its table (plus metadata).

    Fleet-executed studies run their scenarios through
    :class:`~repro.fleet.runner.FleetRunner` (``engine``/``workers``/
    ``parallel`` map directly); direct studies receive the context and
    may thread ``engine`` into their own machines.  Either way the
    result is a :class:`ResultTable` stamped with the study name —
    and for a given spec it is bit-identical across engines and worker
    counts (the fleet determinism contract).

    ``store`` (a :class:`~repro.store.cache.ResultStore`) makes the run
    durable and resumable.  A finished table whose content address
    (study + profile + simulation semantics; not the engine, which
    cannot change a bit) is already archived is returned without
    executing anything, whichever engine archived it; otherwise a fleet-executed
    study streams per-scenario results through the store — replaying the
    cells a previous (possibly killed) run already finished and
    simulating only the missing ones — and the finished table is
    archived afterwards, *unless* any scenario failed (a partial table
    must never be served as the study's answer).  ``on_error`` is the
    fleet failure policy (see :meth:`FleetRunner.run`); it requires a
    fleet-executed study, since a direct study has no per-scenario
    boundary to record failures at.

    ``cache`` supplies a shared :class:`~repro.fleet.cache.ModelCache`
    for fleet-executed studies — the service layer passes one cache
    across every job so concurrent runs share prepared models.  An
    option the study cannot interpret is rejected, not dropped (see
    :func:`check_study_options`, which holds the validation).
    """
    study, profile = check_study_options(
        name, engine=engine, workers=workers, parallel=parallel,
        profile=profile, on_error=on_error, cache=cache,
    )
    table_key = None
    if store is not None:
        from repro.store.cache import study_table_key

        table_key = study_table_key(study.name, profile)
        archived = store.load_table(table_key)
        if archived is not None:
            return StudyRun(
                study, archived, store=store,
                obs=_obs.snapshot() if _obs.ENABLED else None,
                from_table_cache=True,
            )
    ctx = StudyContext(
        profile=profile,
        engine=engine,
        workers=workers,
        parallel=parallel,
    )
    if study.fleet_executed:
        from repro.fleet.runner import FleetRunner

        runner = FleetRunner(workers, parallel=parallel, engine=engine,
                             cache=cache)
        report = runner.run(study.scenarios(ctx), store=store,
                            on_error=on_error)
        table = study.collect(report, ctx, runner.cache)
        table.meta.setdefault("study", study.name)
        if store is not None and report.failures == 0:
            store.save_table(table_key, table)
        return StudyRun(study, table, report=report, cache=runner.cache,
                        store=store,
                        obs=_obs.snapshot() if _obs.ENABLED else None)
    table = study.run(ctx)
    table.meta.setdefault("study", study.name)
    if store is not None:
        store.save_table(table_key, table)
    return StudyRun(study, table, store=store,
                    obs=_obs.snapshot() if _obs.ENABLED else None)
