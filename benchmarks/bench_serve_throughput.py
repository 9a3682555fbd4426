"""Extension — study service throughput: what dedup and coalescing buy.

The serve layer exists so that N callers asking for the same study pay
for one execution; this bench measures that contract and the one
underneath it, in host-portable ratios (the regression gate diffs
``median_s / reference_median_s``, never raw wall-clock):

* ``dedup_hit`` — resubmitting a completed spec (a completed-table
  cache hit through the full submit/result path) vs the execution that
  produced it.  The hit must beat the execution by a wide margin —
  asserted at >= 5x even in smoke, because a hit does no simulation at
  all; anything less means submissions have started paying
  execution-shaped costs.
* ``concurrent_mixed`` — a mixed duplicate/distinct job load through a
  2-worker service vs the same four jobs through serial
  :func:`run_study` calls.  The ratio tracks scheduling overhead plus
  the concurrency win; the *identity* half is the real assertion:
  every table the service returns is byte-equal to its serial twin
  (checked in every mode — concurrency must never cost a bit).
* ``startup_first_fleet_job`` — in a fresh interpreter, constructing a
  :class:`StudyService` as ``repro serve`` does (``warm=True``: built
  with no other thread alive, it compiles the fleet studies' default
  programs and forks its workers) up to the table of its first fleet
  job, a default-profile fast ``fig7``, vs the same ``fig7`` through a
  cold in-process :func:`run_study`.  ``repro serve``'s end-to-end
  benchmark times jobs only after the service listens, so this case is
  where the constructor's cost shows.

Smoke mode (``REPRO_BENCH_SMOKE=1``) trims the hit count; the ratios
remain comparable because both sides shrink together.
"""

import json
import os
import subprocess
import sys
import time

from repro.serve import JobSpec, StudyService
from repro.study import run_study

from benchmarks._record import record_bench
from benchmarks.conftest import run_once

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
N_HITS = 5 if SMOKE else 25

#: A dedup hit must beat the execution it replaces by at least this
#: factor (asserted in every mode; the real margin is much larger).
MIN_DEDUP_SPEEDUP = 5.0

#: The mixed workload: two distinct specs, each submitted twice.
def _mixed_specs():
    fig8 = JobSpec("fig8", engine="fast")
    table1 = JobSpec("table1")
    return [fig8, table1, fig8, table1]


def _median(values):
    values = sorted(values)
    return values[len(values) // 2]


def _bench_dedup_hit():
    with StudyService(workers=2) as svc:
        spec = JobSpec("fig8", engine="fast")
        t0 = time.perf_counter()
        cold = svc.run(spec)
        execute_s = time.perf_counter() - t0

        hit_times = []
        for _ in range(N_HITS):
            t0 = time.perf_counter()
            table = svc.run(spec)
            hit_times.append(time.perf_counter() - t0)
            # A hit serves the *same* finished table, not a recompute.
            assert table is cold
        assert svc.counters()["executions"] == 1
    hit_s = _median(hit_times)
    return {
        "median_s": hit_s,
        "reference_median_s": execute_s,
        "speedup_vs_execute": execute_s / max(hit_s, 1e-12),
    }


def _bench_concurrent_mixed():
    specs = _mixed_specs()

    t0 = time.perf_counter()
    serial = [
        run_study(s.study, engine=s.engine, profile=s.profile).table.to_json()
        for s in specs
    ]
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    with StudyService(workers=2) as svc:
        jobs = [svc.submit(s) for s in specs]
        tables = [svc.result(j.id, timeout=300) for j in jobs]
        counters = svc.counters()
    concurrent_s = time.perf_counter() - t0

    # Bit-identity in every mode: the service's concurrency and dedup
    # must be invisible in the numbers.
    for table, expected in zip(tables, serial):
        assert table.to_json() == expected
    # Exact accounting: 4 submissions, 2 distinct specs, 2 executions.
    assert counters["executions"] == 2
    assert counters["dedup_hits"] == 2
    return {"median_s": concurrent_s, "reference_median_s": serial_s}


#: Timed in a fresh interpreter (so no other thread exists and every
#: cache is cold); prints ``[seconds, table json, start methods]``.
_STARTUP_SCRIPT = r"""
import json, sys, time
from repro.serve import JobSpec, StudyService
from repro.study import run_study

spec = dict(engine="fast", parallel=False)
t0 = time.perf_counter()
if sys.argv[1] == "service":
    svc = StudyService(workers=2, warm=True)
    methods = [p.start_method for p in svc._procs]
    table = svc.run(JobSpec("fig7", **spec), timeout=300).to_json()
else:
    methods = []
    table = run_study("fig7", **spec).table.to_json()
elapsed = time.perf_counter() - t0
if sys.argv[1] == "service":
    svc.close()
print(json.dumps([elapsed, table, methods]))
"""


def _startup_run(kind):
    out = subprocess.run(
        [sys.executable, "-c", _STARTUP_SCRIPT, kind], env=dict(os.environ),
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _bench_startup_first_fleet_job():
    runs = 1 if SMOKE else 3
    service, direct = [], []
    for _ in range(runs):
        elapsed, table, methods = _startup_run("service")
        # A thread-free constructor forks its workers (after the warm).
        assert methods == ["fork", "fork"]
        service.append(elapsed)
        elapsed, expected, _ = _startup_run("direct")
        direct.append(elapsed)
        assert table == expected
    return {"median_s": _median(service),
            "reference_median_s": _median(direct)}


def test_serve_throughput(benchmark):
    def run():
        return {
            "dedup_hit": _bench_dedup_hit(),
            "concurrent_mixed": _bench_concurrent_mixed(),
            "startup_first_fleet_job": _bench_startup_first_fleet_job(),
        }

    cases = run_once(benchmark, run)

    speedup = cases["dedup_hit"]["speedup_vs_execute"]
    ratio = (cases["concurrent_mixed"]["median_s"]
             / cases["concurrent_mixed"]["reference_median_s"])
    startup = cases["startup_first_fleet_job"]
    print()
    print(f"serve{' (smoke)' if SMOKE else ''}: dedup hit "
          f"{cases['dedup_hit']['median_s'] * 1e3:.2f} ms vs execute "
          f"{cases['dedup_hit']['reference_median_s'] * 1e3:.1f} ms "
          f"({speedup:.0f}x); mixed 4-job load {ratio:.2f}x of serial; "
          f"new service to first fig7 {startup['median_s']:.2f} s vs "
          f"cold run_study {startup['reference_median_s']:.2f} s")
    benchmark.extra_info["dedup_speedup"] = round(speedup, 1)
    benchmark.extra_info["concurrent_vs_serial"] = round(ratio, 3)
    path = record_bench("serve", cases, meta={"smoke": SMOKE})
    print(f"  wrote {path}")

    assert speedup >= MIN_DEDUP_SPEEDUP, (
        f"dedup hit is only {speedup:.1f}x faster than executing "
        f"(contract: >= {MIN_DEDUP_SPEEDUP:.0f}x — a hit must not pay "
        "execution-shaped costs)"
    )
