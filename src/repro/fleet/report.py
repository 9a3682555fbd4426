"""Fleet-level aggregation and rendering.

A fleet run produces one :class:`ScenarioResult` per scenario; a
:class:`FleetReport` holds them all and answers the deployment questions
the per-inference experiments cannot: across diverse power conditions,
what throughput does each runtime sustain at the median and the tail, how
much energy does an inference cost in distribution, how often do devices
reboot, and what fraction of work is simply never finished (DNF)?

The serializable payload of a report is a
:class:`~repro.study.table.ResultTable`: :meth:`FleetReport.
scenario_table` is the typed per-scenario table, :meth:`FleetReport.
runtime_table` derives the per-runtime distribution summary *from that
table* (so a table loaded back from JSON/NPZ aggregates identically to a
live report), and :meth:`FleetReport.render` is built on both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.fleet.scenario import Scenario
from repro.sim.session import SessionStats


@dataclass
class ScenarioResult:
    """Outcome of one scenario: the spec, its session stats, true labels.

    ``overflow_events`` is the scenario-scoped saturation count from the
    (shared) quantized model's overflow monitor — read it from here, not
    from the cached model, whose monitor is reset per scenario.

    ``error`` is non-empty when the scenario's execution *raised* instead
    of finishing: the runner records a DNF-style failure row (empty
    stats, no labels) carrying the exception summary, so one broken cell
    is data in the report rather than the death of the whole fleet.
    ``error_kind`` types the failure: ``"exception"`` for failures the
    execution itself raised, ``"worker_lost"`` when the worker process
    died (SIGKILL/OOM) past the supervisor's retry budget; empty for
    successful scenarios.
    """

    scenario: Scenario
    stats: SessionStats
    labels: Tuple[int, ...] = ()
    overflow_events: int = 0
    error: str = ""
    error_kind: str = ""

    @property
    def accuracy(self) -> float:
        """Accuracy over completed inferences (0.0 when none completed)."""
        if not self.labels:
            return 0.0
        return self.stats.accuracy(list(self.labels))


@dataclass
class FleetReport:
    """All results of one fleet run plus execution metadata.

    ``unique_models`` counts distinct :attr:`Scenario.model_key` values
    across the *specs* (not the models actually prepared), so the count —
    and the table meta derived from it — is identical whether results
    came from simulation or from a durable-store cache hit.
    ``from_cache`` says how many of :attr:`results` were replayed from a
    :class:`~repro.store.cache.ResultStore` instead of simulated.
    """

    results: List[ScenarioResult]
    workers: int = 1
    wall_s: float = 0.0
    unique_models: int = 0
    from_cache: int = 0

    def __len__(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> int:
        """Scenarios that raised (recorded as error rows, see runner)."""
        return sum(1 for r in self.results if r.error)

    def by_runtime(self) -> Dict[str, List[ScenarioResult]]:
        """Results grouped by runtime, in first-seen order."""
        groups: Dict[str, List[ScenarioResult]] = {}
        for r in self.results:
            groups.setdefault(r.scenario.runtime, []).append(r)
        return groups

    @property
    def total_inferences(self) -> int:
        return sum(r.stats.inferences for r in self.results)

    @property
    def total_completed(self) -> int:
        return sum(r.stats.completed for r in self.results)

    #: Schema of :meth:`scenario_table` (the serializable fleet payload).
    SCENARIO_COLUMNS = (
        ("scenario", "str"),
        ("task", "str"),
        ("runtime", "str"),
        ("trace", "str"),
        ("cap_uf", "float"),
        ("inferences", "int"),
        ("completed", "int"),
        ("throughput_hz", "float"),
        ("energy_mj", "float"),
        ("reboots", "int"),
        ("accuracy", "float"),
        ("overflow_events", "int"),
        ("error", "str"),
        ("error_kind", "str"),
    )

    def scenario_table(self) -> "ResultTable":
        """The per-scenario results as a typed, serializable table."""
        from repro.study.table import ResultTable

        table = ResultTable(
            self.SCENARIO_COLUMNS,
            meta={
                "kind": "fleet-scenarios",
                "workers": str(self.workers),
                "unique_models": str(self.unique_models),
            },
        )
        for r in self.results:
            s = r.stats
            table.append(
                scenario=r.scenario.name,
                task=r.scenario.task,
                runtime=r.scenario.runtime,
                trace=r.scenario.trace.label(),
                cap_uf=r.scenario.cap_uf,
                inferences=s.inferences,
                completed=s.completed,
                throughput_hz=s.throughput_hz,
                energy_mj=s.total_energy_j * 1e3,
                reboots=s.total_reboots,
                accuracy=r.accuracy,
                overflow_events=r.overflow_events,
                error=r.error,
                error_kind=r.error_kind,
            )
        return table

    @staticmethod
    def runtime_table(scenarios: "ResultTable") -> "ResultTable":
        """Per-runtime distribution summary derived from a scenario table.

        A *static* transformation of the payload — it works identically
        on a live report's table and on one round-tripped through
        JSON/NPZ, which is what makes fleet results portable.
        """
        from repro.study.table import ResultTable

        out = ResultTable((
            ("runtime", "str"),
            ("scenarios", "int"),
            ("dnf_rate", "float"),
            ("throughput_hz_p50", "float"),
            ("throughput_hz_p10", "float"),
            ("mj_per_inf_p50", "float"),
            ("mj_per_inf_p90", "float"),
            ("reboots_per_inf_p50", "float"),
        ))
        for runtime, group in scenarios.group_by("runtime").items():
            inferences = sum(group.column("inferences"))
            completed = sum(group.column("completed"))
            done = group.filter(lambda r: r["completed"] > 0)
            per_inf_mj = [r["energy_mj"] / r["completed"] for r in done]
            per_inf_rb = [r["reboots"] / r["completed"] for r in done]
            out.append(
                runtime=runtime,
                scenarios=len(group),
                dnf_rate=(1.0 - completed / inferences) if inferences else 0.0,
                throughput_hz_p50=group.percentile("throughput_hz", 50),
                throughput_hz_p10=group.percentile("throughput_hz", 10),
                mj_per_inf_p50=_percentile(per_inf_mj, 50),
                mj_per_inf_p90=_percentile(per_inf_mj, 90),
                reboots_per_inf_p50=_percentile(per_inf_rb, 50),
            )
        return out

    def render(self) -> str:
        """Text report: per-runtime distributions, then per-scenario rows."""
        scenarios = self.scenario_table()
        title = (
            f"Fleet report: {len(self)} scenarios, "
            f"{self.total_completed}/{self.total_inferences} inferences, "
            f"{self.unique_models} unique models, "
            f"{self.workers} worker(s), {self.wall_s:.2f} s"
        )
        if self.from_cache:
            title += f", {self.from_cache} from cache"
        if self.failures:
            title += f", {self.failures} FAILED"
        return "\n\n".join([
            render_runtime_table(self.runtime_table(scenarios), title=title),
            render_scenario_table(scenarios),
        ])


def _percentile(values: Sequence[float], q: float) -> float:
    from repro.study.table import percentile

    return percentile(values, q)


def render_runtime_table(aggregates: "ResultTable",
                         title: str = "Per-runtime distributions") -> str:
    """Format a :meth:`FleetReport.runtime_table` result as text."""
    from repro.experiments.reporting import format_table

    return format_table(
        ["runtime", "cells", "DNF", "thr p50", "thr p10",
         "mJ/inf p50", "mJ/inf p90", "rb/inf p50"],
        [
            (
                r["runtime"],
                f"{r['scenarios']}",
                f"{100 * r['dnf_rate']:.1f}%",
                f"{r['throughput_hz_p50']:.2f}",
                f"{r['throughput_hz_p10']:.2f}",
                f"{r['mj_per_inf_p50']:.2f}",
                f"{r['mj_per_inf_p90']:.2f}",
                f"{r['reboots_per_inf_p50']:.1f}",
            )
            for r in aggregates
        ],
        title=title,
    )


def render_scenario_table(scenarios: "ResultTable") -> str:
    """Format a :meth:`FleetReport.scenario_table` result as text."""
    from repro.experiments.reporting import format_table

    return format_table(
        ["scenario", "done", "inf/s", "mJ", "reboots"],
        [
            (
                r["scenario"],
                "ERROR" if r["error"] else f"{r['completed']}/{r['inferences']}",
                f"{r['throughput_hz']:.2f}",
                f"{r['energy_mj']:.2f}",
                f"{r['reboots']}",
            )
            for r in scenarios
        ],
        title="Per-scenario results",
    )
