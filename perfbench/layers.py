"""Per-layer metrics: what each should move, and how they are computed.

``MOVES`` names, for every per-layer metric in ``BENCHMARK.json``, the
end-to-end metric and the workload that a change to the layer is
expected to move; a claim against the benchmark cites it.  Self times
(``*_s``) and counts are per measured round, averaged over the traced
rounds of a ``--trace 1`` run.
"""

from __future__ import annotations

MOVES = {
    "startup.import_s": "setup_s on all workloads; wall_s on paper-cli",
    "fleet.model_prep_s":
        "wall_s on paper-cli; serve.job_p90_s on serve-mixed",
    "fleet.model_builds":
        "wall_s on paper-cli; serve.job_p90_s on serve-mixed",
    "fleet.scenario_setup_s": "wall_s on paper-cli and fleet-default",
    "fleet.parent_wait_s": "wall_s on paper-cli",
    "fleet.pooled_runs": "wall_s on paper-cli",
    "fleet.scenarios": "error_rate on all workloads",
    "fleet.scenarios_failed": "error_rate on all workloads",
    "datasets.make_s": "wall_s on paper-cli and fleet-default",
    "sim.compile_s": "wall_s on paper-cli and fleet-default",
    "sim.programs_compiled": "wall_s on paper-cli and fleet-default",
    "sim.replay_s": "wall_s on paper-cli and fleet-default",
    "sim.inferences": "wall_s on paper-cli and fleet-default",
    "sim.replay_us_per_inference": "wall_s on paper-cli and fleet-default",
    "sim.session_s": "wall_s on paper-cli and fleet-default",
    "power.trace_build_s": "wall_s on fleet-default",
    "power.energy_s": "wall_s on fleet-default (dominant)",
    "power.energy_s.rf": "wall_s on fleet-default",
    "power.energy_s.solar": "wall_s on fleet-default",
    "power.energy_s.square": "wall_s on fleet-default and paper-cli",
    "power.energy_lookups": "wall_s on fleet-default",
    "power.energy_us_per_lookup": "wall_s on fleet-default (dominant)",
    "kernels.logits_s": "wall_s on paper-cli and fleet-default",
    "kernels.logits_rows": "wall_s on paper-cli and fleet-default",
    "rad.train_s": "wall_s on paper-cli",
    "rad.quantize_s": "wall_s on paper-cli",
    "store.lookup_s": "serve.job_p50_s on serve-mixed",
    "store.put_s": "serve.job_p50_s on serve-mixed",
    "store.flush_s": "serve.job_p50_s on serve-mixed",
    "store.table_load_s": "serve.job_p50_s on serve-mixed",
    "store.table_save_s": "serve.job_p50_s on serve-mixed",
    "store.table_hit_ratio": "serve.job_p50_s on serve-mixed",
    "serve.submit_s": "wall_s on serve-mixed",
    "serve.fetch_s": "wall_s on serve-mixed",
    "serve.queue_wait_s": "wall_s on serve-mixed",
    "serve.exec_s": "wall_s on serve-mixed",
    "serve.dedup_ratio": "wall_s on serve-mixed",
    "serve.retried": "wall_s on serve-mixed",
    "serve.job_p50_s": "wall_s on serve-mixed",
    "serve.job_p90_s": "wall_s on serve-mixed",
    "serve.jobs_per_s": "wall_s on serve-mixed",
    "study.collect_s": "wall_s on paper-cli",
    "study.render_s": "wall_s on paper-cli",
    "unattributed_s": "wall_s on every workload",
    "trace_overhead_pct": "none: the tracer's own cost",
    "error_rate": "none: must stay 0",
    "device_latency_ms":
        "none: simulated; a host-speed change keeps it bit-equal",
    "device_energy_mj":
        "none: simulated; a host-speed change keeps it bit-equal",
    "paper_err_pct": "none: simulated; a host-speed change keeps it bit-equal",
}

#: Self-time span names whose total becomes ``<name>_s``.
SPAN_LAYERS = (
    "startup.import", "fleet.model_prep", "fleet.scenario_setup",
    "fleet.parent_wait", "datasets.make", "sim.compile", "sim.replay",
    "sim.session", "power.trace_build", "kernels.logits", "rad.train",
    "rad.quantize", "store.lookup", "store.put", "store.flush",
    "store.table_load", "store.table_save", "study.collect",
    "study.render", "serve.submit", "serve.fetch",
)

#: Counters copied through as they are.
COUNTERS = (
    "fleet.model_builds", "fleet.pooled_runs", "fleet.scenarios",
    "fleet.scenarios_failed", "sim.programs_compiled", "sim.inferences",
    "kernels.logits_rows", "power.energy_lookups",
)


def per_layer(merged: dict, rounds: int) -> dict:
    """Per-round layer metrics from merged tracer aggregates."""
    self_s, counts = merged["self_s"], merged["counts"]
    out = {f"{name}_s": self_s.get(name, 0.0) / rounds
           for name in SPAN_LAYERS}
    out.update({name: counts.get(name, 0.0) / rounds for name in COUNTERS})
    energy = {k: v for k, v in self_s.items()
              if k.startswith("power.energy.")}
    out["power.energy_s"] = sum(energy.values()) / rounds
    for kind in ("rf", "solar", "square"):
        out[f"power.energy_s.{kind}"] = energy.get(
            f"power.energy.{kind}", 0.0) / rounds
    lookups = counts.get("power.energy_lookups", 0.0)
    out["power.energy_us_per_lookup"] = (
        1e6 * sum(energy.values()) / lookups if lookups else 0.0)
    inferences = counts.get("sim.inferences", 0.0)
    out["sim.replay_us_per_inference"] = (
        1e6 * self_s.get("sim.replay", 0.0) / inferences
        if inferences else 0.0)
    loads = counts.get("store.table_loads", 0.0)
    out["store.table_hit_ratio"] = (
        counts.get("store.table_hits", 0.0) / loads if loads else 0.0)
    return out
