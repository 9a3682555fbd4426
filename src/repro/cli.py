"""Command-line interface: every study from the shell.

The CLI is a thin face over the study registry
(:mod:`repro.study`) — one executor, two core commands::

    python -m repro list
    python -m repro run <study> [--engine reference|fast] [--workers N]
                                [--serial] [--json OUT] [--npz OUT]
                                [--out DIR] [--resume] [--shard-rows N]
                                [--task ...] [--seed N] [--full]
                                [--samples K] [--corpus [NAME ...]]

Every paper artifact is one registered study (``repro run table1``,
``repro run fig7``, ``repro run sweep-power``, ...); there are no
per-artifact subcommands.  The power-trace corpus has its own tool::

    python -m repro traces list
    python -m repro traces describe NAME [--seed N]
    python -m repro traces export NAME --out FILE.{csv,npz} [--seed N]

and the observability surface (see :mod:`repro.obs`)::

    python -m repro run <study> --metrics METRICS.json --trace TRACE.json
    python -m repro stats METRICS.json
    python -m repro bench report [--dir DIR] [--against DIR]

and the study service (see :mod:`repro.serve`)::

    python -m repro serve [--port P] [--workers N] [--out DIR] [--metrics]
    python -m repro submit <study> [--url URL] [--engine ...] [--json OUT]
                                   [--job-json OUT] [--no-wait]

``--metrics`` captures a merged counters/gauges/durations snapshot of
the run (fleet workers included); ``--trace`` captures spans as Chrome
trace-event JSON (open in Perfetto or ``chrome://tracing``).  Both are
written atomically alongside the study artifacts.

Configuration errors print one line to stderr and exit with status 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro import __version__
from repro.errors import ConfigurationError, ReproError

#: Hook for fault-injection tests: the opener artifact sinks go through.
_open_artifact = open


def _profile_from_args(args) -> "Profile":
    from repro.study import Profile

    return Profile(
        tasks=tuple(args.task) if args.task else None,
        seed=args.seed,
        full=args.full,
        samples=args.samples,
        corpus=tuple(args.corpus) if args.corpus is not None else None,
    )


# -- core commands ------------------------------------------------------------


def _cmd_list(args) -> None:
    from repro.experiments.reporting import format_table
    from repro.study import get_study, study_names

    rows = []
    for name in study_names():
        study = get_study(name)
        rows.append((
            study.name,
            "fleet" if study.fleet_executed else "direct",
            study.artifact or "-",
            study.title,
        ))
    print(format_table(
        ["study", "execution", "artifact", "title"], rows,
        title="Registered studies ('repro run <study>'; fleet-executed "
              "studies take --engine/--workers)",
    ))


class _ArtifactSink:
    """Atomic artifact writer: ``<path>.tmp`` now, ``os.replace`` at commit.

    Opening the sibling temp file up front keeps the fail-fast bad-path
    check (an unwritable destination fails in milliseconds, before any
    simulation) — but the *destination* is only ever touched by the
    atomic rename in :meth:`commit`, after the payload is fully written
    and fsynced.  A run that fails, or a write that dies mid-stream
    (disk full), discards the temp file and leaves whatever artifact a
    previous run produced exactly as it was.
    """

    def __init__(self, path: str, mode: str, write, note: str = "") -> None:
        self.path = path
        self.tmp = path + ".tmp"
        self.write = write
        self.note = note
        self.fh = _open_artifact(self.tmp, mode)

    def commit(self, table) -> None:
        try:
            with self.fh:
                self.write(self.fh, table)
                self.fh.flush()
                os.fsync(self.fh.fileno())
        except BaseException:
            self.discard()
            raise
        os.replace(self.tmp, self.path)

    def discard(self) -> None:
        try:
            self.fh.close()
        finally:
            try:
                os.unlink(self.tmp)
            except OSError:
                pass


def _open_store(args) -> "Optional[ResultStore]":
    """Build the durable store for ``repro run`` from its flags."""
    from repro.store import MANIFEST_NAME

    if args.resume and not args.out:
        raise ConfigurationError(
            "--resume needs --out DIR (there is no store to resume without "
            "one)")
    if args.shard_rows is not None and not args.out:
        raise ConfigurationError(
            "--shard-rows needs --out DIR (it sizes the store's shards)")
    if not args.out:
        return None
    if args.shard_rows is not None and args.shard_rows < 1:
        raise ConfigurationError("--shard-rows must be >= 1")
    exists = os.path.isfile(os.path.join(args.out, MANIFEST_NAME))
    if exists and not args.resume:
        raise ConfigurationError(
            f"store {args.out!r} already holds results; pass --resume to "
            "reuse them (missing cells are re-simulated, finished ones are "
            "replayed bit-identically) or point --out at a fresh directory")
    from repro.store import ResultStore

    if args.shard_rows is None:
        return ResultStore(args.out)
    return ResultStore(args.out, shard_rows=args.shard_rows)


def _install_faults(args) -> bool:
    """Arm a ``--faults FILE`` chaos plan; True when one was installed."""
    path = getattr(args, "faults", None)
    if not path:
        return False
    import json as _json

    from repro import faults
    from repro.errors import ConfigurationError

    try:
        with open(path) as fh:
            payload = _json.load(fh)
    except ValueError as exc:
        raise ConfigurationError(f"bad fault plan {path}: {exc}")
    faults.install(faults.FaultPlan.from_dict(payload))
    print(f"repro: fault injection armed from {path} "
          f"({len(faults.active_plan().rules)} rule(s))", file=sys.stderr)
    return True


def _cmd_run(args) -> None:
    import json as _json

    from repro import faults, obs
    from repro.study import get_study, run_study

    faulted = _install_faults(args)
    store = _open_store(args)
    obs_on = bool(args.metrics or args.trace)
    if obs_on:
        # Fresh registry for this run; FleetRunner ships the flag to its
        # workers and merges their snapshots back, so the artifacts
        # cover the whole process tree.
        obs.reset()
        obs.enable()
    # Open temp files *before* running: a bad path must fail in
    # milliseconds, not after minutes of simulation.  The destination
    # paths themselves are untouched until the run succeeds (see
    # _ArtifactSink) — a failed re-run never destroys a good artifact.
    sinks = []
    try:
        try:
            if args.json:
                sinks.append(_ArtifactSink(
                    args.json, "w",
                    lambda fh, t: fh.write(t.to_json(indent=2))))
            if args.npz:
                # np.savez accepts an open binary handle.
                sinks.append(_ArtifactSink(
                    args.npz, "wb", lambda fh, t: t.to_npz(fh)))
            if args.metrics:
                # Snapshot taken at commit time, i.e. after the run (and
                # after the fleet absorbed its workers' snapshots).
                sinks.append(_ArtifactSink(
                    args.metrics, "w",
                    lambda fh, _t: _json.dump(
                        obs.snapshot(), fh, indent=2, sort_keys=True),
                    note="metrics snapshot"))
            if args.trace:
                sinks.append(_ArtifactSink(
                    args.trace, "w",
                    lambda fh, _t: obs.export_chrome_trace(fh),
                    note="chrome trace"))
            # With a durable store, one broken scenario becomes an error
            # row (already-finished cells are on disk; aborting would
            # help no one); without one, failures stop the run as before.
            on_error = ("record"
                        if store is not None
                        and get_study(args.study).fleet_executed
                        else "raise")
            run = run_study(
                args.study,
                engine=args.engine,
                workers=args.workers,
                parallel=not args.serial,
                profile=_profile_from_args(args),
                store=store,
                on_error=on_error,
            )
        except BaseException:
            for sink in sinks:
                sink.discard()
            raise
        print(run.render())
        for sink in sinks:
            sink.commit(run.table)
            print(f"wrote {sink.path}: {sink.note or repr(run.table)}",
                  file=sys.stderr)
    finally:
        if obs_on:
            obs.reset()
            obs.disable()
        if faulted:
            faults.uninstall()
    if store is not None:
        print(store.summary(), file=sys.stderr)
        if run.report is not None and run.report.failures:
            print(
                f"repro: warning: {run.report.failures} scenario(s) FAILED "
                "(recorded as error rows; re-run with --resume to retry "
                "them)", file=sys.stderr)


def _cmd_traces(args) -> None:
    from repro.power import CORPUS

    # Reject ignored arguments (same stance as TraceSpec's per-kind
    # field validation: silently dropping input hides mistakes).
    if args.action == "list":
        if args.name:
            raise ConfigurationError(
                "traces list takes no NAME (use 'describe' for one entry)")
        if args.out:
            raise ConfigurationError("--out only applies to 'export'")
        print(CORPUS.summary_table(seed=args.seed))
        return
    if not args.name:
        raise ConfigurationError(f"traces {args.action} needs an entry NAME")
    if args.action == "describe":
        if args.out:
            raise ConfigurationError("--out only applies to 'export'")
        print(CORPUS.describe(args.name, seed=args.seed))
        return
    # export
    if not args.out:
        raise ConfigurationError("traces export needs --out FILE (.csv or .npz)")
    if not args.out.endswith((".csv", ".npz")):
        raise ConfigurationError(
            f"traces export --out must end in .csv or .npz, got {args.out!r} "
            "(the extension selects the format)"
        )
    trace = CORPUS.get(args.name, seed=args.seed)
    if args.out.endswith(".npz"):
        trace.to_npz(args.out)
    else:
        trace.to_csv(args.out)
    print(f"wrote {args.name} (seed {args.seed}) to {args.out}: {trace!r}")


def _cmd_stats(args) -> None:
    import json

    from repro import obs

    try:
        with open(args.file) as fh:
            snap = json.load(fh)
    except ValueError as exc:
        raise ConfigurationError(f"{args.file}: not valid JSON ({exc})")
    print(obs.render_snapshot(snap))


def _cmd_bench(args) -> None:
    import json

    from repro.experiments.reporting import format_table

    if args.action != "report":
        raise ConfigurationError(f"unknown bench action {args.action!r}")
    root = args.dir or "."
    paths = sorted(
        p for p in os.listdir(root)
        if p.startswith("BENCH_") and p.endswith(".json")
    )
    if not paths:
        raise ConfigurationError(
            f"no BENCH_*.json files under {root!r} (run the benchmarks, "
            "or pass --dir)")
    against = {}
    if args.against:
        for p in os.listdir(args.against):
            if p.startswith("BENCH_") and p.endswith(".json"):
                with open(os.path.join(args.against, p)) as fh:
                    against[p] = json.load(fh)
    blocks = []
    for name in paths:
        with open(os.path.join(root, name)) as fh:
            payload = json.load(fh)
        other = against.get(name, {}).get("cases", {})
        headers = ["case", "median", "speedup", "details"]
        if against:
            headers.append(f"vs {args.against}")
        rows = []
        for case, stats in sorted(payload.get("cases", {}).items()):
            median = stats.get("median_s")
            speedup = stats.get("speedup_vs_reference")
            extras = ", ".join(
                f"{k}={v:g}" for k, v in sorted(stats.items())
                if k not in ("median_s", "speedup_vs_reference",
                             "reference_median_s")
            )
            row = [
                case,
                f"{median * 1e3:.3f} ms" if median is not None else "-",
                f"{speedup:.2f}x" if speedup is not None else "-",
                extras or "-",
            ]
            if against:
                base = other.get(case, {}).get("median_s")
                row.append(
                    f"{median / base:.2f}x"
                    if median is not None and base else "-"
                )
            rows.append(row)
        import datetime

        when = datetime.datetime.fromtimestamp(
            payload.get("created_unix", 0), datetime.timezone.utc
        ).strftime("%Y-%m-%d")
        title = (
            f"{payload.get('bench', name)} — {when}, "
            f"python {payload.get('python', '?')}, "
            f"numpy {payload.get('numpy', '?')}"
            + (", SMOKE" if payload.get("smoke") else "")
        )
        blocks.append(format_table(headers, rows, title=title))
    print("\n\n".join(blocks))


def _cmd_serve(args) -> None:
    from repro import faults, obs
    from repro.serve import StudyService, serve_http

    faulted = _install_faults(args)
    if args.metrics:
        obs.reset()
        obs.enable()
    store = _open_store(args)
    service = StudyService(workers=args.workers, store=store)
    server = serve_http(service, args.host, args.port, log=args.verbose)
    # One parseable line, flushed before blocking: scripts starting the
    # server on an ephemeral port (--port 0) read the bound URL from it.
    print(f"repro serve: listening on {server.url} "
          f"({args.workers} workers)", flush=True)
    try:
        # serve_forever runs on the daemon thread; park until signalled.
        import threading

        threading.Event().wait()
    except KeyboardInterrupt:
        print("repro serve: shutting down (draining queue)",
              file=sys.stderr)
    finally:
        server.shutdown()
        service.close()
        if faulted:
            faults.uninstall()


def _job_line(job: dict) -> str:
    flavor = "dedup hit" if job.get("dedup") else "executed"
    return (f"repro submit: {job['id']} [{job['study']}] "
            f"{job['state']} ({flavor})")


def _cmd_submit(args) -> None:
    import json as _json

    from repro.serve import JobSpec, ServeClient
    from repro.study import get_study

    spec = JobSpec(
        study=args.study,
        engine=args.engine,
        workers=args.workers,
        parallel=not args.serial,
        profile=_profile_from_args(args),
        timeout_s=args.job_timeout,
    )
    client = ServeClient(args.url)
    job = client.submit(spec)
    print(_job_line(job), file=sys.stderr)
    if args.no_wait:
        print(_json.dumps(job, indent=2))
        return
    job = client.wait(job["id"], timeout=args.timeout)
    if args.job_json:
        sink = _ArtifactSink(
            args.job_json, "w",
            lambda fh, payload: fh.write(_json.dumps(payload, indent=2)))
        sink.commit(job)
    if job["state"] != "done":
        # Surface the server-side failure as the usual CLI error path.
        client.result(job["id"])  # raises JobFailedError
        raise ReproError(f"job {job['id']} ended {job['state']}")
    # The table round-trips losslessly, so --json writes exactly what
    # `repro run --json` writes for the same spec.
    table = client.result(job["id"])
    if args.json:
        sink = _ArtifactSink(
            args.json, "w", lambda fh, t: fh.write(t.to_json(indent=2)))
        sink.commit(table)
        print(f"wrote {args.json}: {table!r}", file=sys.stderr)
    print(get_study(args.study).render(table))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of 'Enabling Fast "
                    "Deep Learning on Tiny Energy-Harvesting IoT Devices' "
                    "(DATE 2022) through the unified study API.",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the registered studies")

    pr = sub.add_parser("run", help="run a registered study")
    pr.add_argument("study", help="study name (see 'repro list')")
    pr.add_argument("--engine", choices=("reference", "fast"),
                    default="reference",
                    help="simulation engine (fast = precompiled replay, "
                         "bit-identical results)")
    pr.add_argument("--workers", type=int, default=None,
                    help="worker processes for fleet-executed studies "
                         "(default: available CPUs)")
    pr.add_argument("--serial", action="store_true",
                    help="force serial execution")
    pr.add_argument("--json", metavar="OUT",
                    help="also write the ResultTable as lossless JSON")
    pr.add_argument("--npz", metavar="OUT",
                    help="also write the ResultTable as lossless NPZ")
    pr.add_argument("--out", metavar="DIR",
                    help="durable result store: stream scenario results to "
                         "DIR as they finish; finished tables are archived "
                         "there too")
    pr.add_argument("--resume", action="store_true",
                    help="reuse an existing --out store: replay finished "
                         "cells bit-identically, simulate only missing ones")
    pr.add_argument("--shard-rows", type=int, default=None, metavar="N",
                    help="rows per store shard (with --out; default 256)")
    pr.add_argument("--task", choices=("mnist", "har", "okg"), nargs="+",
                    help="tasks to run (default: the study's own)")
    pr.add_argument("--seed", type=int, default=0, help="study seed")
    pr.add_argument("--full", action="store_true",
                    help="full training profile (table2)")
    pr.add_argument("--samples", type=int, default=4,
                    help="samples per scenario session (fleet)")
    pr.add_argument("--corpus", nargs="*", metavar="NAME", default=None,
                    help="sweep corpus-backed supplies (fleet; no names = "
                         "whole corpus)")
    pr.add_argument("--metrics", metavar="OUT",
                    help="enable observability and write the merged "
                         "counters/durations snapshot (workers included) "
                         "as JSON")
    pr.add_argument("--faults", metavar="FILE",
                    help="chaos testing: arm a JSON FaultPlan "
                         "(repro.faults) for this run")
    pr.add_argument("--trace", metavar="OUT",
                    help="enable observability and write spans as Chrome "
                         "trace-event JSON (open in Perfetto)")

    pt = sub.add_parser("traces",
                        help="power-trace corpus: list/describe/export")
    pt.add_argument("action", choices=("list", "describe", "export"))
    pt.add_argument("name", nargs="?",
                    help="corpus entry (describe/export)")
    pt.add_argument("--seed", type=int, default=0,
                    help="rendering seed (default 0)")
    pt.add_argument("--out", help="export path: .csv or .npz")

    px = sub.add_parser("stats",
                        help="render a --metrics snapshot for humans")
    px.add_argument("file", help="metrics JSON written by 'run --metrics'")

    pb = sub.add_parser("bench",
                        help="benchmark trajectory: report BENCH_*.json")
    pb.add_argument("action", choices=("report",))
    pb.add_argument("--dir", default=None, metavar="DIR",
                    help="directory holding BENCH_*.json (default: .)")
    pb.add_argument("--against", default=None, metavar="DIR",
                    help="second directory to compare medians against")

    pv = sub.add_parser(
        "serve",
        help="run the concurrent study service (HTTP JSON API)")
    pv.add_argument("--host", default="127.0.0.1",
                    help="bind address (default 127.0.0.1)")
    pv.add_argument("--port", type=int, default=8321,
                    help="bind port (0 = ephemeral; the bound URL is "
                         "printed on startup)")
    pv.add_argument("--workers", type=int, default=2,
                    help="concurrent job executions (default 2)")
    pv.add_argument("--out", metavar="DIR",
                    help="durable result store backing the service "
                         "(scenario results stream in, finished tables "
                         "are archived)")
    pv.add_argument("--resume", action="store_true",
                    help="reuse an existing --out store")
    pv.add_argument("--shard-rows", type=int, default=None, metavar="N",
                    help="rows per store shard (with --out; default 256)")
    pv.add_argument("--faults", metavar="FILE",
                    help="chaos testing: arm a JSON FaultPlan "
                         "(repro.faults) for this server")
    pv.add_argument("--metrics", action="store_true",
                    help="enable observability (served at GET /metrics)")
    pv.add_argument("--verbose", action="store_true",
                    help="log each HTTP request to stderr")

    pm = sub.add_parser(
        "submit",
        help="submit one study job to a running 'repro serve'")
    pm.add_argument("study", help="study name (see 'repro list')")
    pm.add_argument("--url", default="http://127.0.0.1:8321",
                    help="service base URL (default http://127.0.0.1:8321)")
    pm.add_argument("--engine", choices=("reference", "fast"),
                    default="reference",
                    help="simulation engine (fast = precompiled replay, "
                         "bit-identical results)")
    pm.add_argument("--workers", type=int, default=None,
                    help="fleet worker processes for this job")
    pm.add_argument("--serial", action="store_true",
                    help="force serial execution for this job")
    pm.add_argument("--task", choices=("mnist", "har", "okg"), nargs="+",
                    help="tasks to run (default: the study's own)")
    pm.add_argument("--seed", type=int, default=0, help="study seed")
    pm.add_argument("--full", action="store_true",
                    help="full training profile (table2)")
    pm.add_argument("--samples", type=int, default=4,
                    help="samples per scenario session (fleet)")
    pm.add_argument("--corpus", nargs="*", metavar="NAME", default=None,
                    help="sweep corpus-backed supplies (fleet)")
    pm.add_argument("--job-timeout", type=float, default=None, metavar="S",
                    help="server-side execution timeout for this job")
    pm.add_argument("--timeout", type=float, default=None, metavar="S",
                    help="client-side wait bound (default: wait forever)")
    pm.add_argument("--no-wait", action="store_true",
                    help="print the accepted job as JSON and return "
                         "without waiting")
    pm.add_argument("--json", metavar="OUT",
                    help="write the result table as lossless JSON "
                         "(the service's exact bytes)")
    pm.add_argument("--job-json", metavar="OUT",
                    help="write the final job resource (state, dedup, "
                         "timings) as JSON")

    return parser


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "traces": _cmd_traces,
    "stats": _cmd_stats,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
