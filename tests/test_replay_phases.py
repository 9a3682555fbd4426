"""Direct tests of the harvested replay's phases (``repro.sim.fastsim``).

The conformance suite checks whole runs against the reference machine;
these tests pin single phases of ``_Replay`` against the scalar
recurrence each one replaces — the scalar draw, recharge, the deferred
meter flush, the test-free prefix proof, and the square-wave scalar twin
— so a broken phase fails here, by name, before it shows up as a diff
deep inside a harvested run.
"""

import math

import numpy as np
import pytest

from repro.errors import InferenceAborted, PowerFailureError
from repro.hw.board import Device
from repro.power import (
    Capacitor,
    ConstantTrace,
    EmpiricalTrace,
    EnergyHarvester,
    SolarTrace,
    SquareWaveTrace,
    StochasticRFTrace,
    VoltageMonitor,
)
from repro.sim import compile_program
from repro.sim.fastsim import _Replay, _square_wave_energy
from tests.test_fastsim_conformance import ToyRuntime, cpu_atom


def span_program(n=120, *, snapshot=False):
    """``n`` non-divisible atoms: one long span with every meter key, exec
    and commit events, and volatile-free commits that move the durable
    cursor."""
    atoms = [
        cpu_atom(4000.0 + 150.0 * (i % 7), commit=i % 3 != 2,
                 volatile=16 if i % 4 == 0 else 0, label=f"a{i}", layer=i,
                 component=("cpu", "lea", "dma")[i % 3],
                 fram_reads=i % 11, fram_writes=i % 5, sram=i % 13,
                 purpose=("compute", "data")[i % 2])
        for i in range(n)
    ]
    return compile_program(ToyRuntime(atoms, snapshot_on_warning=snapshot))


def replay(program, supply, *, monitor=None, meter=None):
    if meter is None:
        meter = Device().meter
    return _Replay(program, supply, meter, monitor)


TRACES = {
    "square": lambda: SquareWaveTrace(3e-3, 0.05, 0.3),
    "rf": lambda: StochasticRFTrace(1.5e-3, seed=3),
    "solar": lambda: SolarTrace(4e-3, period_s=0.5),
    "constant": lambda: ConstantTrace(2e-3),
}


class TestDraw:
    """``_Replay.draw`` == ``Device._draw_and_record`` (the harvester draw
    plus its meter records), brown-outs included."""

    @pytest.mark.parametrize("kind", sorted(TRACES))
    def test_matches_device_draw_and_record(self, kind):
        program = span_program(8)
        ref_dev = Device(supply=EnergyHarvester(TRACES[kind](),
                                                Capacitor(10e-6)))
        fast_supply = EnergyHarvester(TRACES[kind](), Capacitor(10e-6))
        r = replay(program, fast_supply)
        rng = np.random.default_rng(5)
        outcomes = []
        for i in range(400):
            time_s = float(rng.choice([0.0, 2e-5, 4e-4, 3e-3]))
            e = float(rng.choice([0.0, 1e-6, 2e-5, 1.5e-4]))
            bookings = [(("cpu", "lea")[i % 2], time_s, e, "compute")]
            total = e
            if i % 3:
                fram = float(rng.uniform(0.0, 2e-6))
                bookings.append(("fram", 0.0, fram, "data"))
                total = total + fram
            try:
                ref_dev._draw_and_record(bookings, time_s)
                ok = True
            except PowerFailureError:
                ok = False
            assert r.draw(bookings, time_s, total) is ok, i
            outcomes.append(ok)
            supply = ref_dev.supply
            assert r.v == supply.capacitor.voltage, i
            assert r.clock == supply.clock_s, i
            assert r.failures == supply.failures, i
            if not ok:  # the reference recharges before the next draw
                supply.recharge()
                assert r.recharge()
        meter = ref_dev.meter
        assert r.e_by == meter.energy_j and list(r.e_by) == list(meter.energy_j)
        assert r.t_by == meter.time_s and list(r.t_by) == list(meter.time_s)
        assert r.p_by == meter.purpose_energy_j
        assert list(r.p_by) == list(meter.purpose_energy_j)
        assert True in outcomes and False in outcomes

    @pytest.mark.parametrize("harvest_w", [0.0, 2e-3, 0.5])
    def test_knife_edge_draws(self, harvest_w):
        """Draws of exactly the usable energy (the post-draw ``v_off``
        clamp can bind by rounding) and brown-outs whose harvest the
        ``v_max`` clamp threw away (the spent energy caps at the draw)."""
        program = span_program(4)
        supplies = [EnergyHarvester(ConstantTrace(harvest_w),
                                    Capacitor(10e-6)) for _ in range(2)]
        ref_dev = Device(supply=supplies[0])
        r = replay(program, supplies[1])
        rng = np.random.default_rng(2)
        clamped = 0
        for i in range(300):
            v = float(rng.uniform(1.9, 3.6))
            for supply in supplies:
                supply.capacitor.voltage = v
            r.v = v
            time_s = 1e-4 if i % 2 else 0.0
            total = r.half_c * (v ** 2 - r.v_off_sq) * (1.0 if i % 3 else 1.3)
            bookings = [("cpu", time_s, total, "compute")]
            try:
                ref_dev._draw_and_record(bookings, time_s)
                ok = True
            except PowerFailureError:
                ok = False
            assert r.draw(bookings, time_s, total) is ok, i
            assert r.v == supplies[0].capacitor.voltage, i
            assert r.e_by == ref_dev.meter.energy_j, i
            clamped += r.v == r.v_off
        assert clamped


class TestRecharge:
    """``_Replay.recharge`` == ``EnergyHarvester.recharge()`` from the same
    voltage and clock, including the timeout abort."""

    CASES = {
        # kind: (trace, capacitor kwargs, timeout_s)
        "square": (lambda: SquareWaveTrace(3e-3, 0.05, 0.3), {}, 600.0),
        "square-clamp-binds": (lambda: SquareWaveTrace(3e-2, 0.05, 0.3),
                               {"v_on": 3.6, "v_max": 3.6}, 600.0),
        "rf": (lambda: StochasticRFTrace(1.5e-3, seed=3), {}, 600.0),
        "solar": (lambda: SolarTrace(4e-3, period_s=0.5), {}, 600.0),
        "constant": (lambda: ConstantTrace(2e-3), {}, 600.0),
        "empirical": (lambda: EmpiricalTrace(
            [0.0, 0.004, 0.01, 0.02], [6e-3, 0.0, 2.5e-3]), {}, 600.0),
        "constant-clamp-binds": (lambda: ConstantTrace(0.5),
                                 {"v_on": 3.6, "v_max": 3.6}, 600.0),
        "dead": (lambda: ConstantTrace(0.0), {}, 0.5),
        "weak-timeout": (lambda: ConstantTrace(2e-6), {}, 0.75),
        "square-timeout": (lambda: SquareWaveTrace(1e-6, 0.05, 0.3), {}, 1.3),
    }

    @pytest.mark.parametrize("kind", sorted(CASES))
    @pytest.mark.parametrize("v0,t0", [(1.8, 0.0), (2.6, 0.3137),
                                       (3.4999, 7.25)])
    def test_matches_harvester_recharge(self, kind, v0, t0):
        make_trace, cap_kw, timeout_s = self.CASES[kind]
        supplies = [EnergyHarvester(make_trace(), Capacitor(47e-6, **cap_kw),
                                    charge_timeout_s=timeout_s)
                    for _ in range(2)]
        for supply in supplies:
            supply.capacitor.voltage = v0
            supply.clock_s = t0
            supply.charge_time_s = 1.5
        ref, fast = supplies
        r = replay(span_program(4), fast)
        try:
            ref.recharge()
            aborted = False
        except InferenceAborted:
            aborted = True
        assert r.recharge() is not aborted
        assert r.v == ref.capacitor.voltage
        assert r.clock == ref.clock_s
        assert r.charge_time == ref.charge_time_s
        if v0 < 3.0:  # far below v_on: the weak supplies time out
            assert aborted == (kind in ("dead", "weak-timeout",
                                        "square-timeout"))


#: Recharge block estimates far too small (4-step blocks), far too
#: large (65536-step blocks) and absent (geometric growth).
BLOCK_SIZINGS = {
    "tiny": lambda self, t, energy_j: 0.0,
    "huge": lambda self, t, energy_j: math.inf,
    "unknown": lambda self, t, energy_j: None,
}


@pytest.fixture(params=sorted(BLOCK_SIZINGS))
def forced_blocks(request, monkeypatch):
    """Every stock trace answers ``harvest_time`` with one forced sizing."""
    for cls in (ConstantTrace, EmpiricalTrace, SquareWaveTrace,
                StochasticRFTrace, SolarTrace):
        monkeypatch.setattr(cls, "harvest_time",
                            BLOCK_SIZINGS[request.param])
    return request.param


class TestRechargeBlockSizing:
    """Recharge block sizes never change a bit."""

    @pytest.mark.parametrize("kind", sorted(TestRecharge.CASES))
    def test_recharge_matches_harvester(self, forced_blocks, kind):
        TestRecharge().test_matches_harvester_recharge(kind, 1.8, 0.3137)

    def test_scenario_results_byte_equal_reference(self, forced_blocks):
        from repro.fleet.cache import ModelCache
        from repro.fleet.grid import DEFAULT_TRACES, scenario_grid
        from repro.fleet.runner import FleetRunner
        from repro.fleet.scenario import TraceSpec
        from repro.store.records import encode_result

        traces = DEFAULT_TRACES + (TraceSpec("corpus", corpus="rf-markov"),)
        grid = scenario_grid(runtimes=("TAILS", "ACE+FLEX"), traces=traces,
                             n_samples=2)
        cache = ModelCache()
        reference = FleetRunner(workers=1, cache=cache).run(grid)
        fast = FleetRunner(workers=1, cache=cache, engine="fast").run(grid)
        assert reference.failures == 0
        for a, b in zip(reference.results, fast.results):
            assert a.scenario == b.scenario
            assert encode_result(a) == encode_result(b), a.scenario.name


class TestFlush:
    """``_Replay.flush`` == the per-booking dict adds it defers, with the
    reference's dict key order."""

    @staticmethod
    def scalar_flush(program, e0, e1, by, sub_exec):
        e_by, t_by, p_by = (dict(d) for d in by)
        for ev in range(e0, e1):
            if program.ev_is_exec[ev]:
                sub_exec += program.cycles[program.ev_atom[ev]]
        for s in range(program.ev_book_start[e0], program.ev_book_start[e1]):
            compo, t, e, purpose = program.book_stream[s]
            e_by[compo] = e_by.get(compo, 0.0) + e
            t_by[compo] = t_by.get(compo, 0.0) + t
            p_by[purpose] = p_by.get(purpose, 0.0) + e
        return (e_by, t_by, p_by), sub_exec

    @pytest.mark.parametrize("start", ["empty", "seeded"])
    def test_matches_per_booking_adds(self, start):
        program = span_program(200)
        n = program.n_events
        rng = np.random.default_rng(1)
        ranges = [(0, n), (0, 1), (n - 1, n), (5, 5), (3, 40), (10, 160)]
        ranges += [tuple(sorted(rng.integers(0, n + 1, 2))) for _ in range(30)]
        for e0, e1 in ranges:
            meter = Device().meter
            if start == "seeded":  # some keys present, in another order
                meter.energy_j.update(dma=1e-3, cpu=2e-4)
                meter.time_s.update(dma=0.5, cpu=0.25)
                meter.purpose_energy_j.update(data=3e-4)
            r = replay(program, EnergyHarvester(ConstantTrace(0.0),
                                                Capacitor()), meter=meter)
            r.sub_exec = 17.0
            want, want_exec = self.scalar_flush(
                program, e0, e1, (r.e_by, r.t_by, r.p_by), 17.0)
            r.flush(e0, e1)
            assert r.sub_exec == want_exec, (e0, e1)
            for got, exp in zip((r.e_by, r.t_by, r.p_by), want):
                assert got == exp, (e0, e1)
                assert list(got) == list(exp), (e0, e1)  # key order


class TestFreePrefix:
    """No event inside the prefix ``free_prefix`` returns can fire a
    brown-out, ``v_off`` clamp or warning test under a scalar walk."""

    @pytest.mark.parametrize("snapshot", [False, True])
    @pytest.mark.parametrize("harvest", ["none", "charging"])
    def test_prefix_fires_no_test(self, snapshot, harvest):
        program = span_program(300, snapshot=snapshot)
        supply = EnergyHarvester(ConstantTrace(0.0), Capacitor(100e-6))
        monitor = VoltageMonitor(supply, v_warn=2.4) if snapshot else None
        r = replay(program, supply, monitor=monitor)
        drw = r.drw_l
        tot = program.ev_total_l
        rng = np.random.default_rng(7)
        lengths = []
        for _ in range(300):
            v0 = float(rng.uniform(r.v_off, r.v_max))
            e = int(rng.integers(0, program.n_events))
            n = int(rng.integers(1, program.n_events - e + 1))
            k = r.free_prefix(v0, e, n)
            assert 0 <= k <= n
            lengths.append(k)
            v = v0
            for j in range(e, e + k):
                assert v > r.sv_warn, (v0, e, j)
                if harvest == "charging":
                    root = math.sqrt(v ** 2 + float(rng.uniform(0.0, 0.2)))
                    v = root if root < r.v_max else r.v_max
                assert not tot[j] > r.half_c * (v ** 2 - r.v_off_sq), (v0, e, j)
                new_sq = v ** 2 - drw[j]
                assert new_sq >= r.v_off_sq, (v0, e, j)
                v = math.sqrt(new_sq)
        # The proof is not vacuous: it covers long stretches and whole
        # batches, and refuses near the thresholds.
        assert max(lengths) >= 40 and 0 in lengths
        assert sum(k == 0 for k in lengths) < len(lengths) // 2


class TestSquareWaveTwin:
    """``_square_wave_energy`` is bitwise ``SquareWaveTrace.energy`` — at
    period edges and at the single-period cache's ``1e-13`` guard bounds,
    after the cache was primed on the same period or not at all."""

    @staticmethod
    def probes(trace, k):
        period = trace.period_s
        p0 = k * period
        p1 = (k + 1) * period
        on_end = p0 + trace.duty * period
        points = []
        for x in (p0, p0 * (1.0 + 1e-13), p0 * (1.0 - 1e-13), on_end,
                  p1 * (1.0 - 1e-13), p1 * (1.0 + 1e-13), p1):
            points += [math.nextafter(x, -math.inf), x,
                       math.nextafter(x, math.inf)]
        return [t for t in points if t >= 0.0], p0 + 0.1 * period

    @pytest.mark.parametrize("shape", [(5e-3, 0.05, 0.3), (2e-3, 0.02, 1.0),
                                       (1e-3, 0.1, 0.5)])
    @pytest.mark.parametrize("primed", [False, True])
    def test_bitwise_at_edges_and_guard_bounds(self, shape, primed):
        trace = SquareWaveTrace(*shape)
        energy = _square_wave_energy(trace)
        for k in (0, 1, 2, 7, 1000):
            points, inside = self.probes(trace, k)
            for t in points:
                for dt in (0.0, 1e-9, 1e-6, 3.7e-5, 0.3 * trace.period_s,
                           trace.period_s, 2.5 * trace.period_s):
                    if primed:  # cache the period the probe starts in
                        assert energy(inside, 0.0) == trace.energy(inside, 0.0)
                    got = energy(t, dt)
                    want = trace.energy(t, dt)
                    assert got == want, (k, t, dt, got, want)
