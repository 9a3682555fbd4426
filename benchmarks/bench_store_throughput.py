"""Extension — durable-store throughput: what streaming durability costs.

The result store exists so that no run ever loses finished work; this
bench measures what that durability costs and what resume buys, in
host-portable ratios (the regression gate diffs ``median_s /
reference_median_s``, never raw wall-clock):

* ``append`` — committing rows through the sharded store (tmp + fsync +
  rename per shard, manifest rewrite per commit) vs writing the same
  rows once as a monolithic NPZ.  Both sides are I/O-bound on the same
  filesystem, so the ratio isolates the *sharding* overhead.
* ``reopen`` — opening an existing store (manifest + digest verification
  of every shard + index build) vs loading the monolithic NPZ.  This is
  the fixed cost a resume pays before its first cache hit.
* ``replay`` — rebuilding finished :class:`ScenarioResult` records from
  stored payloads vs re-simulating the same scenarios.  This ratio IS
  the resume feature: replay must be a small fraction of simulation, or
  ``--resume`` saves nothing.

Also asserted (timing-free, so it holds in CI smoke): replayed results
are bit-identical to the simulated originals — the property that makes
serving them instead of re-simulating sound at all.

Smoke mode (``REPRO_BENCH_SMOKE=1``) shrinks row and scenario counts;
the ratios remain comparable because both sides of every ratio shrink
together.
"""

import os

from repro.fleet.cache import ModelCache
from repro.fleet.grid import default_grid
from repro.fleet.runner import execute_scenario
from repro.store import (
    ResultStore,
    ShardStore,
    decode_result,
    encode_result,
    scenario_key,
)
from repro.study.table import ResultTable

from benchmarks._record import median_time, record_bench
from benchmarks.conftest import run_once

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
N_ROWS = 512 if SMOKE else 4096
SHARD_ROWS = 64 if SMOKE else 256
N_SCENARIOS = 2 if SMOKE else 4
ROUNDS = 3
#: Replay must beat re-simulation by at least this factor, or --resume
#: is pointless.  The real margin is orders of magnitude; the floor only
#: guards the class of regression where decode grows simulation-shaped
#: work.
MIN_REPLAY_SPEEDUP = 5.0

COLUMNS = (("scenario", "str"), ("value", "float"), ("count", "int"))


def _rows(n):
    return [
        {"scenario": f"cell-{i:05d}", "value": i * 0.125, "count": i}
        for i in range(n)
    ]


def _bench_append(tmp, rows):
    state = {"n": 0}

    def sharded():
        root = tmp / f"sharded-{state['n']}"
        state["n"] += 1
        store = ShardStore(root, COLUMNS, shard_rows=SHARD_ROWS)
        for row in rows:
            store.append(**row)
        store.flush()

    def monolithic():
        path = tmp / "monolithic.npz"
        table = ResultTable(COLUMNS)
        for row in rows:
            table.append(**row)
        with open(path, "wb") as fh:
            table.to_npz(fh)
            fh.flush()
            os.fsync(fh.fileno())

    sharded_s = median_time(sharded, rounds=ROUNDS, iterations=1)
    mono_s = median_time(monolithic, rounds=ROUNDS, iterations=1)
    return sharded_s, mono_s


def _bench_reopen(tmp, rows):
    root = tmp / "reopen"
    store = ShardStore(root, COLUMNS, shard_rows=SHARD_ROWS)
    for row in rows:
        store.append(**row)
    store.flush()
    mono = tmp / "reopen.npz"
    with open(mono, "wb") as fh:
        store.load_table().to_npz(fh)

    def open_and_index():
        reopened = ShardStore(root, COLUMNS)
        n = sum(1 for _ in reopened.iter_rows())
        assert n == len(rows)

    def load_monolithic():
        assert len(ResultTable.from_npz(str(mono))) == len(rows)

    open_s = median_time(open_and_index, rounds=ROUNDS, iterations=1)
    mono_s = median_time(load_monolithic, rounds=ROUNDS, iterations=1)
    return open_s, mono_s


def _bench_replay(scenarios):
    cache = ModelCache()
    models = {s.model_key: cache.get(s) for s in scenarios}

    def simulate():
        return [
            execute_scenario(s, models[s.model_key], engine="fast")
            for s in scenarios
        ]

    results = simulate()
    payloads = [encode_result(r) for r in results]

    def replay():
        return [
            decode_result(s, p) for s, p in zip(scenarios, payloads)
        ]

    # Bit-identity first: replay is only allowed to be fast because it
    # is exact.  Re-encoding a decoded record is a fixed point.
    for r, back in zip(results, replay()):
        assert encode_result(back) == encode_result(r)

    replay_s = median_time(replay, rounds=ROUNDS, iterations=1)
    simulate_s = median_time(simulate, rounds=ROUNDS, iterations=1)
    return replay_s, simulate_s


def test_store_throughput(benchmark, tmp_path):
    rows = _rows(N_ROWS)
    scenarios = default_grid(tasks=("mnist",), n_samples=1)[:N_SCENARIOS]

    def run():
        return {
            "append": _bench_append(tmp_path, rows),
            "reopen": _bench_reopen(tmp_path, rows),
            "replay": _bench_replay(scenarios),
        }

    timings = run_once(benchmark, run)

    append_s, append_ref = timings["append"]
    reopen_s, reopen_ref = timings["reopen"]
    replay_s, simulate_s = timings["replay"]
    rows_per_s = N_ROWS / append_s
    replay_speedup = simulate_s / max(replay_s, 1e-12)

    print()
    print(f"store throughput, {N_ROWS} rows, shard_rows={SHARD_ROWS}"
          f"{' (smoke)' if SMOKE else ''}:")
    print(f"  append : {append_s * 1e3:8.1f} ms sharded "
          f"({rows_per_s:,.0f} rows/s), {append_ref * 1e3:8.1f} ms "
          f"monolithic -> {append_s / append_ref:.2f}x")
    print(f"  reopen : {reopen_s * 1e3:8.1f} ms verify+index, "
          f"{reopen_ref * 1e3:8.1f} ms monolithic load -> "
          f"{reopen_s / reopen_ref:.2f}x")
    print(f"  replay : {replay_s * 1e3:8.1f} ms for {N_SCENARIOS} cells, "
          f"{simulate_s * 1e3:8.1f} ms simulated -> "
          f"{replay_speedup:.0f}x faster")

    benchmark.extra_info["append_rows_per_s"] = round(rows_per_s)
    benchmark.extra_info["replay_speedup"] = round(replay_speedup, 1)

    assert replay_speedup >= MIN_REPLAY_SPEEDUP, (
        f"replaying stored results is only {replay_speedup:.1f}x faster "
        f"than re-simulating (floor {MIN_REPLAY_SPEEDUP}x): decode has "
        "grown simulation-shaped work and --resume no longer pays"
    )

    record_bench(
        "store",
        {
            "append": {
                "median_s": append_s,
                "reference_median_s": append_ref,
                "rows_per_s": rows_per_s,
                "rows": N_ROWS,
                "shard_rows": SHARD_ROWS,
            },
            "reopen": {
                "median_s": reopen_s,
                "reference_median_s": reopen_ref,
                "rows": N_ROWS,
            },
            "replay": {
                "median_s": replay_s,
                "reference_median_s": simulate_s,
                "scenarios": N_SCENARIOS,
                "speedup_vs_simulate": replay_speedup,
            },
        },
    )


def test_resume_round_trip_bit_identical(tmp_path):
    """Timing-free durability contract, asserted in CI smoke too.

    A store written through the fleet runner, reopened by a fresh
    process, serves every result bit-identically — the fact the whole
    resume feature rests on.
    """
    from repro.fleet.runner import FleetRunner

    scenarios = default_grid(tasks=("mnist",), n_samples=1)[:N_SCENARIOS]
    store = ResultStore(tmp_path / "st", shard_rows=1)
    first = FleetRunner(1, parallel=False, engine="fast").run(
        scenarios, store=store)
    reopened = ResultStore(tmp_path / "st", shard_rows=1)
    second = FleetRunner(1, parallel=False, engine="fast").run(
        scenarios, store=reopened)
    assert second.from_cache == len(scenarios)
    assert second.scenario_table() == first.scenario_table()
    for s, a, b in zip(scenarios, first.results, second.results):
        key = scenario_key(s)
        assert key in reopened
        assert encode_result(a) == encode_result(b)
