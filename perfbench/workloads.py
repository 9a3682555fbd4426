"""The three workloads: seeded inputs, timed rounds, output checks.

Each workload runs *rounds* of identical shape until the run's time
budget is spent (``serve-mixed``: a fixed number of rounds); a round's
wall time, or each of its timed parts, is one sample towards ``wall_s``.
A traced round also returns the per-process tracer payloads
(:mod:`perfbench.tracing`) and the top-level span time of the lanes its
wall time is measured on, for ``unattributed_s``.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from perfbench import stats, tracing

#: ``python -c`` body of one set-up probe.
SETUP_PROBE = ("import repro.cli\n"
               "from repro.study import study_names\n"
               "study_names()\n")

#: Studies the serve-mixed clients ask for.
SERVE_STUDIES = ("fig7", "fig8", "sweep-capacitor", "sweep-power",
                 "sweep-trace")
#: Jobs per serve round: half new specs, half repeats.
SERVE_ROUND_JOBS = 50
#: Bound on any single wait for the service (startup, one job, exit).
SERVE_WAIT_S = 60.0


@dataclass
class Round:
    wall_s: float
    #: Per-job latencies (serve-mixed only).
    jobs_s: List[float] = field(default_factory=list)
    #: Tracer payloads of every process in the round (traced rounds).
    payloads: List[dict] = field(default_factory=list)
    #: Seconds of each part of the round, when its parts are timed
    #: apart (one per fleet cell, or per paper-cli study process).
    parts: Dict[str, float] = field(default_factory=dict)
    #: Top-level span seconds on the measured lanes (traced rounds).
    covered_s: float = 0.0
    #: Per-round layer values measured outside the tracer (serve).
    layers: Dict[str, float] = field(default_factory=dict)


class Env:
    """Paths and shared state of one benchmark invocation."""

    def __init__(self, root: str, seed: int, checks: stats.Checks) -> None:
        self.root = root
        self.src = os.path.join(root, "src")
        self.seed = seed
        self.checks = checks
        self.work = os.path.join(root, ".perfbench", f"run-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.child_env = dict(os.environ, PYTHONPATH=self.src)
        self.launcher = os.path.join(root, "perfbench", "launch.py")
        self._dirs = 0

    def new_dir(self, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.work, f"{self._dirs:03d}-{label}")
        os.makedirs(path)
        return path

    def repro_cmd(self, args: List[str],
                  trace_dir: Optional[str] = None) -> List[str]:
        if trace_dir is None:
            return [sys.executable, "-m", "repro", *args]
        return [sys.executable, self.launcher, "--trace-dir", trace_dir,
                "--", *args]


def setup_sample(env: Env) -> float:
    """Seconds from spawning a fresh interpreter to a loaded registry."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_PROBE], check=True,
                   env=env.child_env, cwd=env.root)
    return time.perf_counter() - t0


def _import_repro() -> float:
    t0 = time.perf_counter()
    exec(SETUP_PROBE, {})
    return time.perf_counter() - t0


def _canonical(path: str) -> str:
    """A ``--json`` artifact re-serialized as ``ResultTable.to_json()``."""
    from repro.study.table import ResultTable

    with open(path) as fh:
        return ResultTable.from_json(fh.read()).to_json()


class Workload:
    name = ""
    #: Concurrent lanes the wall time is measured on.
    lanes = 1
    #: Measured rounds every untraced run makes, whatever its time
    #: budget.  Rounds of ~10 s back to back can differ by 20% on a
    #: shared host, so a run reports the median of several.
    min_rounds = 2
    #: Make exactly ``min_rounds`` measured rounds (and one traced one).
    fixed_rounds = False

    def __init__(self, env: Env) -> None:
        self.env = env
        self.traced = False
        #: Import seconds paid once by this process (in-process workloads).
        self.import_s: Optional[float] = None

    def warm(self) -> None:
        """One-time work done before the first timed round."""

    def start_tracing(self) -> None:
        self.traced = True

    def round(self) -> Round:
        raise NotImplementedError


class Fleet(Workload):
    """A warm in-process ``run_study("fleet", engine="fast",
    parallel=False)``: the default 18-cell grid, ``base_seed`` = seed."""

    name = "fleet-default"
    #: ~10-s rounds; each cell's median time over three, summed.
    min_rounds = 3

    def __init__(self, env: Env) -> None:
        super().__init__(env)
        self.import_s = _import_repro()
        import repro.fleet.runner as runner
        from repro.study import Profile

        self.profile = Profile(seed=env.seed)
        self.tracer: Optional[tracing.Tracer] = None
        #: Seconds of each cell of the current round, in grid order
        #: (serial execution keeps the order fixed).
        self.cells: List[float] = []
        tracing.time_calls(runner, "execute_scenario", self.cells)

    def warm(self) -> None:
        # Lazy imports and first-use set-up, on a one-task study.
        from repro.study import Profile, run_study

        run_study("fig7", engine="fast", parallel=False,
                  profile=Profile(tasks=("mnist",), seed=self.env.seed))

    def start_tracing(self) -> None:
        super().start_tracing()
        self.tracer = tracing.Tracer()
        tracing.install(self.tracer)

    def round(self) -> Round:
        from repro.study import run_study

        tracer = self.tracer
        if tracer is not None:
            tracer.reset()
            tracer.out_dir = self.env.new_dir(self.name)
        self.cells.clear()
        t0 = time.perf_counter()
        run = run_study("fleet", engine="fast", parallel=False,
                        profile=self.profile)
        wall = time.perf_counter() - t0
        checks = self.env.checks
        checks.ops(len(run.report.results), run.report.failures,
                   f"{self.name}: failed scenario")
        checks.table(self.name, run.table.to_json())
        parts = {f"cell{i:02d}": s for i, s in enumerate(self.cells)}
        parts["rest"] = wall - sum(self.cells)
        result = Round(wall, parts=parts)
        if tracer is not None:
            tracer.dump()
            result.payloads = tracing.read_dir(tracer.out_dir)
            result.covered_s = tracer.covered_s
            tracer.out_dir = None
        return result


class PaperCli(Workload):
    """Every registered study but ``fleet`` as a cold CLI process."""

    name = "paper-cli"
    #: ~8-s rounds; each study's median time over four, summed.
    min_rounds = 4

    def __init__(self, env: Env) -> None:
        super().__init__(env)
        from repro.study import get_study, study_names

        self.commands = []
        for name in study_names():
            if name == "fleet":
                continue
            study = get_study(name)
            args = ["run", name]
            if "seed" in study.params:
                args += ["--seed", str(env.seed)]
            if study.fleet_executed or study.engine_aware:
                args += ["--engine", "fast"]
            self.commands.append((name, args))
        self.fig7_json = ""

    def round(self) -> Round:
        out_dir = self.env.new_dir(self.name)
        trace_dir = out_dir if self.traced else None
        checks = self.env.checks
        outputs = []
        parts = {}
        for name, args in self.commands:
            path = os.path.join(out_dir, f"{name}.table.json")
            t0 = time.perf_counter()
            proc = subprocess.run(
                self.env.repro_cmd(args + ["--json", path], trace_dir),
                env=self.env.child_env, cwd=self.env.root,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            parts[name] = time.perf_counter() - t0
            if checks.op(proc.returncode == 0,
                         f"repro {' '.join(args)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-300:]}"):
                outputs.append((name, path))
        for name, path in outputs:
            text = _canonical(path)
            checks.table(name, text)
            if name == "fig7":
                self.fig7_json = text
        result = Round(sum(parts.values()), parts=parts)
        if self.traced:
            result.payloads = tracing.read_dir(out_dir)
            result.covered_s = sum(
                p["otherData"]["covered_s"] for p in result.payloads
                if p["otherData"]["role"] == "main")
        return result


def serve_specs(seed: int, index: int, history: List[dict]) -> List[dict]:
    """Round ``index``'s job sequence: every other job a new spec (an
    equal share per study, fresh seeds), the rest repeats of a spec
    issued earlier this round or, half the time, in an earlier round."""
    rng = random.Random(f"serve-mixed/{seed}/{index}")
    share = SERVE_ROUND_JOBS // (2 * len(SERVE_STUDIES))
    fresh = [study for study in SERVE_STUDIES for _ in range(share)]
    rng.shuffle(fresh)
    issued: List[dict] = []
    out = []
    for i in range(SERVE_ROUND_JOBS):
        if i % 2 == 0:
            study = fresh[i // 2]
            spec = {"study": study, "engine": "fast",
                    "profile": {"seed": rng.randrange(1, 2 ** 31)}}
            if study != "fig8":
                # Serial fleet execution: the service's two worker
                # threads are the load's only parallelism.
                spec["parallel"] = False
            issued.append(spec)
        else:
            pool = history if history and rng.random() < 0.5 else issued
            spec = rng.choice(pool)
        out.append(spec)
    return out


class ServeMixed(Workload):
    """``repro serve`` driven by two closed-loop clients, one fresh
    server per round over one durable store.

    The warm-up round creates the store; every measured round resumes
    it, so each one mixes executions, in-process dedup and durable-store
    table reads.  The round count is fixed, so a faster tree does not
    measure a larger store or a different job mix.
    """

    name = "serve-mixed"
    lanes = 2
    #: Two rounds of 50, so 100 measured jobs: ten latencies beyond p90.
    fixed_rounds = True

    def __init__(self, env: Env) -> None:
        super().__init__(env)
        self.store = os.path.join(env.work, "store")
        self.history: List[dict] = []
        self.rounds = 0
        self.tracer: Optional[tracing.Tracer] = None

    def warm(self) -> None:
        self.round()

    def start_tracing(self) -> None:
        super().start_tracing()
        self.tracer = tracing.Tracer()

    def round(self) -> Round:
        out_dir = self.env.new_dir(self.name)
        specs = serve_specs(self.env.seed, self.rounds, self.history)
        t0 = time.perf_counter()
        try:
            result = self._serve(out_dir, specs)
        except Exception as exc:  # counted; the run still reports
            self.env.checks.op(False, f"serve round {self.rounds}: {exc}")
            result = Round(time.perf_counter() - t0)
        self.rounds += 1
        self.history.extend(s for i, s in enumerate(specs) if i % 2 == 0)
        if self.tracer is not None:
            self.tracer.out_dir = out_dir
            self.tracer.dump()
            result.payloads = tracing.read_dir(out_dir)
            result.covered_s = self.tracer.covered_s
            self.tracer.reset()
        return result

    def _serve(self, out_dir: str, specs: List[dict]) -> Round:
        """One server process, driven through ``specs``, then stopped."""
        args = ["serve", "--port", "0", "--workers", "2", "--out", self.store]
        if self.rounds:
            args.append("--resume")
        with open(os.path.join(out_dir, "server.log"), "w") as log:
            proc = subprocess.Popen(
                self.env.repro_cmd(args, out_dir if self.traced else None),
                env=self.env.child_env, cwd=self.env.root,
                stdout=subprocess.PIPE, stderr=log, text=True,
            )
            watchdog = threading.Timer(SERVE_WAIT_S, proc.kill)
            watchdog.start()
            try:
                line = proc.stdout.readline()
                watchdog.cancel()
                if "listening on " not in line:
                    raise RuntimeError(f"repro serve did not start: {line!r}")
                url = line.split("listening on ", 1)[1].split()[0]
                result = self._drive(url, specs)
            finally:
                watchdog.cancel()
                proc.send_signal(signal.SIGINT)
                try:
                    proc.wait(timeout=SERVE_WAIT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
        self.env.checks.op(proc.returncode == 0,
                           f"repro serve exited {proc.returncode}")
        return result

    def _drive(self, url: str, specs: List[dict]) -> Round:
        from repro.serve import ServeClient

        tracer = self.tracer
        checks = self.env.checks
        lock = threading.Lock()
        pending = iter(specs)
        latencies: List[float] = []
        resources: List[dict] = []
        results = []

        def span(name):
            if tracer is None:
                return contextlib.nullcontext()
            return tracer.span(name)

        def client() -> None:
            conn = ServeClient(url, timeout_s=SERVE_WAIT_S)
            while True:
                with lock:
                    spec = next(pending, None)
                if spec is None:
                    return
                t0 = time.perf_counter()
                try:
                    with span("serve.submit"):
                        job = conn.submit(spec)
                    with span("serve.fetch"):
                        raw = conn.result_json(job["id"],
                                               timeout=SERVE_WAIT_S)
                except Exception as exc:  # a failed job is a data point
                    with lock:
                        checks.op(False, f"serve job {spec}: {exc}")
                    continue
                elapsed = time.perf_counter() - t0
                resource = conn.job(job["id"]) if tracer is not None else None
                with lock:
                    latencies.append(elapsed)
                    results.append((spec, raw))
                    if resource is not None:
                        resources.append(resource)

        threads = [threading.Thread(target=client) for _ in range(self.lanes)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        for spec, raw in results:
            checks.op(True)
            checks.table("serve:" + json.dumps(spec, sort_keys=True), raw)
        result = Round(wall, jobs_s=latencies)
        if tracer is not None:
            ran = [r for r in resources if r["started_s"] is not None]
            health = ServeClient(url).health()
            result.layers = {
                "serve.queue_wait_s": sum(r["started_s"] - r["created_s"]
                                          for r in ran),
                "serve.exec_s": sum(r["finished_s"] - r["started_s"]
                                    for r in ran),
                "serve.dedup_jobs": sum(bool(r["dedup"]) for r in resources),
                "serve.jobs": len(resources),
                "serve.retried": health["counters"]["retried"],
            }
        return result


def make(name: str, env: Env) -> Workload:
    if name == "fleet-default":
        return Fleet(env)
    if name == "paper-cli":
        return PaperCli(env)
    return ServeMixed(env)


def reference_check(env: Env) -> str:
    """Run fig7 and the seed's corpus fleet study (48 cells over the
    corpus supplies, on two workers) on both engines; every pair must be
    byte-equal.  Returns the fast fig7 table JSON."""
    from repro.study import Profile, run_study

    checks = env.checks
    tables = {}
    for engine in ("fast", "reference"):
        tables[engine] = run_study(
            "fig7", engine=engine, parallel=False,
            profile=Profile(seed=env.seed)).table.to_json()
    checks.op(tables["fast"] == tables["reference"],
              "fig7: fast and reference tables differ")
    checks.table("fig7", tables["fast"])
    corpus = Profile(corpus=(), seed=env.seed)
    corpus_fast_json = run_study("fleet", engine="fast", workers=2,
                                 profile=corpus).table.to_json()
    reference = run_study("fleet", engine="reference", workers=2,
                          profile=corpus).table.to_json()
    checks.op(corpus_fast_json == reference,
              "fleet-corpus: fast and reference tables differ")
    checks.table("fleet-corpus", corpus_fast_json)
    return tables["fast"]


def device_metrics(fig7_json: str) -> dict:
    """Simulated Figure 7 figures of merit and the model-vs-paper error."""
    from repro.experiments.fig7 import (PAPER_FIG7A_SPEEDUPS,
                                        PAPER_FIG7B_SPEEDUPS,
                                        PAPER_FIG7C_SAVINGS)
    from repro.study.table import ResultTable

    rows = {(r["task"], r["regime"], r["runtime"]): r
            for r in ResultTable.from_json(fig7_json)}
    tasks = sorted({task for task, _, _ in rows})

    def flex(task, regime):
        return rows[(task, regime, "ACE+FLEX")]

    errors = []
    for paper, regime, column in (
        (PAPER_FIG7A_SPEEDUPS, "continuous", "wall_ms"),
        (PAPER_FIG7B_SPEEDUPS, "intermittent", "active_ms"),
        (PAPER_FIG7C_SAVINGS, "intermittent", "energy_mj"),
    ):
        for task, by_runtime in paper.items():
            base = flex(task, regime)
            for runtime, expected in by_runtime.items():
                row = rows[(task, regime, runtime)]
                if row["completed"] and base["completed"]:
                    ratio = row[column] / base[column]
                    errors.append(abs(ratio / expected - 1))
    return {
        "device_latency_ms": stats.geomean(
            [flex(t, "intermittent")["wall_ms"] for t in tasks]),
        "device_energy_mj": stats.geomean(
            [flex(t, "continuous")["energy_mj"] for t in tasks]),
        "paper_err_pct": 100 * sum(errors) / len(errors),
        "paper_ratios": len(errors),
    }
