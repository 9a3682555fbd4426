"""End-to-end study benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload fleet-default --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout (``src/repro`` must be there).  With
``--trace 0`` it prints the end-to-end metrics (set-up time, round wall
time, peak RSS), with ``--trace 1`` the per-layer metrics of a traced
run (see ``perfbench/layers.py``).  Either way every result table is
digested and checked: within the run, against earlier runs of the same
seed in this checkout, and fast engine against reference engine.  The
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the exit status is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import layers, stats, tracing, workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])

#: Never tuned on: claims against this benchmark must also hold here.
HELDOUT_SEED = 20221

#: Fresh-process set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 12

LEDGER = os.path.join(ROOT, ".perfbench", "digests.json")


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _rounds(workload, budget_s: float, minimum: int, before=None) -> list:
    """At least ``minimum`` rounds, then, unless the workload's round
    count is fixed, more while the next one is expected to end within
    ``budget_s`` of round time.  ``before(done)`` runs ahead of each
    round, outside the budget."""
    out = []
    spent = 0.0
    while len(out) < minimum or (
            not workload.fixed_rounds
            and spent * (len(out) + 1) / len(out) <= budget_s):
        if before is not None:
            before(len(out))
        t0 = time.perf_counter()
        out.append(workload.round())
        spent += time.perf_counter() - t0
    return out


def _wall_s(rounds: list) -> float:
    """The median round, part by part: the sum over a round's timed
    parts of each part's median across rounds (a round without parts is
    one part), so a slow spell in one round costs only the parts it hit.
    """
    parts = [r.parts or {"round": r.wall_s} for r in rounds]
    return sum(statistics.median(p[name] for p in parts)
               for name in parts[0])


def _load_ledger(key: str) -> dict:
    try:
        with open(LEDGER) as fh:
            return json.load(fh).get(key, {})
    except FileNotFoundError:
        return {}


def _save_ledger(key: str, digests: dict) -> None:
    try:
        with open(LEDGER) as fh:
            ledger = json.load(fh)
    except FileNotFoundError:
        ledger = {}
    ledger[key] = digests
    with open(LEDGER + ".tmp", "w") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
    os.replace(LEDGER + ".tmp", LEDGER)


def _per_layer(workload, plain: list, traced: list) -> dict:
    """Per-layer metrics of a ``--trace 1`` run (per traced round)."""
    n = len(traced)
    merged = tracing.merge([p["otherData"] for r in traced
                            for p in r.payloads])
    out = layers.per_layer(merged, n)
    if workload.import_s is not None:
        out["startup.import_s"] = workload.import_s
    extra = {}
    for r in traced:
        for key, value in r.layers.items():
            extra[key] = extra.get(key, 0.0) + value
    for key in ("serve.queue_wait_s", "serve.exec_s", "serve.retried"):
        out[key] = extra.get(key, 0.0) / n
    jobs = extra.get("serve.jobs", 0)
    out["serve.dedup_ratio"] = extra["serve.dedup_jobs"] / jobs if jobs else 0.0
    latencies = [s for r in plain for s in r.jobs_s]
    out["serve.jobs_per_s"] = len(latencies) / sum(r.wall_s for r in plain)
    for q in (50, 90):
        try:
            out[f"serve.job_p{q}_s"] = stats.percentile(latencies, q)
        except ValueError:  # no serve jobs, or too many of them failed
            out[f"serve.job_p{q}_s"] = 0.0
    out["unattributed_s"] = sum(
        stats.unattributed(r.wall_s, r.covered_s, workload.lanes)
        for r in traced) / n
    out["trace_overhead_pct"] = 100 * (
        statistics.median([r.wall_s for r in traced])
        / statistics.median([r.wall_s for r in plain]) - 1)
    # Keep one merged timeline: the last traced round, every process.
    events = [e for p in traced[-1].payloads for e in p["traceEvents"]]
    path = os.path.join(ROOT, ".perfbench", f"trace-{workload.name}.json")
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    return out


def measure(args, env) -> dict:
    """Run one workload; returns ``{metric: (value, unit)}``."""
    workload = workloads.make(args.workload, env)
    workload.warm()
    if args.trace:
        # Plain rounds only give trace_overhead_pct and the serve
        # latencies here, so one is enough where the count is free.
        plain = _rounds(workload, args.seconds / 2,
                        workload.min_rounds if workload.fixed_rounds else 1)
        workload.start_tracing()
        traced = _rounds(workload, args.seconds / 2, 1)
    else:
        # Set-up probes interleave with the rounds, a few before each,
        # so both sample the host over the same stretch of time.  Peak
        # RSS is read after the first round: later rounds only add cache
        # entries, and their number depends on speed.
        setup, rss = [], []
        per_gap = -(-SETUP_PROBES // (workload.min_rounds + 1))

        def between(done: int) -> None:
            if done == 1:
                rss.append(_peak_rss_mb())
            for _ in range(min(per_gap, SETUP_PROBES - len(setup))):
                setup.append(workloads.setup_sample(env))

        plain = _rounds(workload, args.seconds, workload.min_rounds, between)
        if not rss:
            rss.append(_peak_rss_mb())
        while len(setup) < SETUP_PROBES:
            between(0)
    fig7_json = workloads.reference_check(env)
    if args.workload == "paper-cli" and workload.fig7_json != fig7_json:
        env.checks.op(False, "paper-cli: CLI fig7 differs from run_study's")
    walls = [r.wall_s for r in plain]
    print(f"# {args.workload} seed={args.seed}: {len(plain)} rounds, "
          f"wall_s {[round(w, 3) for w in walls]}", flush=True)
    if not args.trace:
        values = {"setup_s": statistics.median(setup),
                  "wall_s": _wall_s(plain),
                  "peak_rss_mb": rss[0]}
        return {m["name"]: (values[m["name"]], m["unit"])
                for m in SPEC["end_to_end"]}
    values = _per_layer(workload, plain, traced)
    device = workloads.device_metrics(fig7_json)
    print(f"# device metrics from {device.pop('paper_ratios')} Fig. 7 "
          f"ratios; {len(traced)} traced rounds", flush=True)
    values.update(device)
    values["error_rate"] = env.checks.error_rate
    return {m["name"]: (values[m["name"]], m["unit"])
            for m in SPEC["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A shell that starts us in the background may leave SIGINT
    # ignored, and children would inherit that; the serve rounds stop
    # their server with SIGINT (its graceful path).  A handled signal
    # resets to the default in exec'd children.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    compileall.compile_dir(src, quiet=1)
    key = f"{args.workload}/{args.seed}"
    checks = stats.Checks(_load_ledger(key))
    env = workloads.Env(ROOT, args.seed, checks)
    try:
        metrics = measure(args, env)
    finally:
        shutil.rmtree(env.work, ignore_errors=True)
    _save_ledger(key, checks.digests)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value!r:>24} {unit}")
    for problem in checks.problems:
        print(f"FAILED: {problem}")
    print(f"# error_rate {checks.error_rate!r} "
          f"({checks.failed}/{checks.attempted})")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
