"""Extension — trace-sampling throughput: prefix-sum vs analytic energy.

``EmpiricalTrace.energy`` sits on the simulator's per-draw hot path, so
the corpus is only viable if a recorded trace integrates about as fast
as the closed-form analytic profiles.  This bench sweeps each trace
family with the simulator's access pattern — a monotonically advancing
clock and sub-segment windows, exactly what ``EnergyHarvester.draw`` and
the fast engine's replay loop generate — and reports ns/call, plus two
unasserted stress figures for the empirical path (random access, which
defeats the segment hint and pays the O(log n) ``bisect``, and
loop-wrapped access far beyond the recorded horizon).

Asserted: the empirical sweep stays within ``2x`` of ``ConstantTrace``
(the cheapest possible energy: one multiply).  The cached same-segment
fast path makes this roughly ``1x`` in practice; the assertion guards
the *class* of regression where energy lookups fall back to per-call
binary searches or numpy scalar overhead.

Also asserted: the bursty-RF sweep started at t=500 s (``rf-late``)
stays within ``2x`` of the same sweep at t=0.  ``StochasticRFTrace``
bisects its ~20k pre-generated segments, so a lookup costs the same
anywhere in the horizon; a lookup whose cost grows with ``t`` (the
linear first-match scan it replaced measures 100-300x in this sweep)
fails.

Also asserted: the ``rf-batch`` and ``solar-batch`` rows — ns per
window of one 1,024-window ``energy_batch`` call clocked like the fast
engine's recharge walk (``np.cumsum`` over fixed 1 ms steps) — stay
below their scalar ``rf`` / ``solar`` sweep rows.  Both families batch
exactly (segment-interior ``p * dt``; ``math.cos`` per element), so a
batch that costs a scalar call per window means the override fell back
to the per-window loop.  The RF trace draws its segments lazily, so
every segment the timed sweeps read is drawn before the first timer.

Also checked here (timing-free, runs in CI smoke): the corpus round
trip — ``export`` (CSV and NPZ) -> re-import -> bit-identical energies —
the contract that makes exported recordings exchangeable artifacts.

Smoke mode (``REPRO_BENCH_SMOKE=1``) shrinks the call counts; the
relative assertions still hold (both sides are measured on the same
host in the same process).
"""

import os
import time

import numpy as np

from repro.power import (
    CORPUS,
    ConstantTrace,
    EmpiricalTrace,
    SolarTrace,
    SquareWaveTrace,
    StochasticRFTrace,
)

from benchmarks.conftest import run_once

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
N_CALLS = 20_000 if SMOKE else 200_000
REPEATS = 3 if SMOKE else 5
MAX_RATIO = 2.0
SWEEP_DT = 2e-4  # a typical atom-draw window
RF_LATE_START = 500.0  # deep into StochasticRFTrace's 600 s horizon
BATCH_WINDOWS = 1024
RECHARGE_STEP = 1e-3  # EnergyHarvester's default charge step
BATCH_START = 1.0


def _sweep_ns(trace, n=N_CALLS, dt=SWEEP_DT, start=0.0):
    """Best-of-repeats ns/call for a forward clock sweep."""
    energy = trace.energy
    best = float("inf")
    for _ in range(REPEATS):
        t = start
        t0 = time.perf_counter()
        for _ in range(n):
            energy(t, dt)
            t += dt
        best = min(best, time.perf_counter() - t0)
    return best / n * 1e9


def _random_ns(trace, horizon, n=N_CALLS):
    """ns/call for seeded random access (defeats the segment hint)."""
    rng = np.random.default_rng(0)
    ts = rng.uniform(0.0, horizon, n).tolist()
    energy = trace.energy
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for t in ts:
            energy(t, SWEEP_DT)
        best = min(best, time.perf_counter() - t0)
    return best / n * 1e9


def _batch_ns(trace, n=BATCH_WINDOWS, step=RECHARGE_STEP,
              start=BATCH_START):
    """Best-of-repeats ns/window of one recharge-shaped ``energy_batch``
    call: ``n`` fixed steps clocked by ``np.cumsum`` from ``start``."""
    seg = np.empty(n + 1)
    seg[0] = start
    seg[1:] = step
    starts = np.cumsum(seg)[:n]
    dts = np.full(n, step)
    energy_batch = trace.energy_batch
    calls = max(1, N_CALLS // n)
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            energy_batch(starts, dts)
        best = min(best, (time.perf_counter() - t0) / calls)
    return best / n * 1e9


def test_trace_sampling_throughput(benchmark):
    empirical = CORPUS.get("rf-markov")  # ~3000 segments
    rows_spec = {
        "constant": ConstantTrace(2e-3),
        "square": SquareWaveTrace(5e-3, 0.05, 0.3),
        "rf": StochasticRFTrace(1.5e-3, seed=7),
        "solar": SolarTrace(5e-3, period_s=1.0),
        "empirical": empirical,
    }
    rows_spec["rf"].horizon_s  # draws every segment, outside the timers

    def run():
        rows = {name: _sweep_ns(tr) for name, tr in rows_spec.items()}
        rows["rf-late"] = _sweep_ns(rows_spec["rf"], start=RF_LATE_START)
        rows["rf-batch"] = _batch_ns(rows_spec["rf"])
        rows["solar-batch"] = _batch_ns(rows_spec["solar"])
        stress = {
            "empirical-random": _random_ns(empirical, empirical.duration_s),
            "empirical-looped": _sweep_ns(
                empirical, start=empirical.duration_s * 40.0),
        }
        return rows, stress

    rows, stress = run_once(benchmark, run)

    print()
    print(f"trace energy() throughput, {N_CALLS} sequential windows of "
          f"{SWEEP_DT * 1e6:.0f} us{' (smoke)' if SMOKE else ''}:")
    for name, ns in rows.items():
        print(f"  {name:11s} {ns:8.1f} ns/call")
        benchmark.extra_info[f"{name}_ns"] = round(ns, 1)
    print("empirical stress (unasserted):")
    for name, ns in stress.items():
        print(f"  {name:17s} {ns:8.1f} ns/call")
        benchmark.extra_info[f"{name}_ns"] = round(ns, 1)
    ratio = rows["empirical"] / rows["constant"]
    benchmark.extra_info["empirical_vs_constant"] = round(ratio, 2)
    print(f"empirical / constant: {ratio:.2f}x (must be <= {MAX_RATIO}x)")

    rf_ratio = rows["rf-late"] / rows["rf"]
    benchmark.extra_info["rf_late_vs_rf"] = round(rf_ratio, 2)
    print(f"rf-late / rf: {rf_ratio:.2f}x (must be <= {MAX_RATIO}x)")

    assert ratio <= MAX_RATIO, (
        f"EmpiricalTrace.energy is {ratio:.2f}x ConstantTrace "
        f"(budget {MAX_RATIO}x): the prefix-sum fast path regressed"
    )
    assert rf_ratio <= MAX_RATIO, (
        f"StochasticRFTrace.energy at t={RF_LATE_START:g} s is "
        f"{rf_ratio:.2f}x its cost at t=0 (budget {MAX_RATIO}x): the "
        f"segment lookup's cost grows with t again"
    )
    for family in ("rf", "solar"):
        batch_ns = rows[f"{family}-batch"]
        print(f"{family}-batch / {family}: {batch_ns / rows[family]:.2f}x "
              f"(must be < 1x)")
        assert batch_ns < rows[family], (
            f"{family} energy_batch costs {batch_ns:.1f} ns/window, no less "
            f"than a scalar energy call ({rows[family]:.1f} ns): the exact "
            f"vectorization fell back to the per-window loop"
        )


def test_corpus_round_trip_bit_identical(tmp_path):
    """export -> re-import -> bit-identical energies, for every entry.

    Timing-free, so it runs (and is asserted) in CI smoke mode: this is
    the contract that makes exported corpus recordings exchangeable.
    """
    windows = [(0.0, 0.5), (13.7, 0.013), (97.3, 4.0), (1000.0, 2.5)]
    for name in CORPUS.names():
        orig = CORPUS.get(name)
        csv_path = str(tmp_path / f"{name}.csv")
        npz_path = str(tmp_path / f"{name}.npz")
        orig.to_csv(csv_path)
        orig.to_npz(npz_path)
        for back in (EmpiricalTrace.from_csv(csv_path),
                     EmpiricalTrace.from_npz(npz_path)):
            assert back.end == orig.end, name
            assert np.array_equal(back.times, orig.times), name
            assert np.array_equal(back.powers, orig.powers), name
            for t, dt in windows:
                assert back.energy(t, dt) == orig.energy(t, dt), (name, t, dt)
