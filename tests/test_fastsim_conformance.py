"""Differential conformance suite: FastMachine vs IntermittentMachine.

The fast engine's contract (``repro.sim.fastsim``) is *bit-identity*:
every RunResult field — floats included — must equal the reference
machine's, along with the post-run supply, meter, and monitor state.
These tests enforce that over seeded randomized atom programs, the
power-trace families (analytic plus corpus-backed EmpiricalTrace, all
end policies), the model-zoo runtimes, and the reference machine's edge
cases (max_reboots exhaustion, stall DNF, failure during restore,
supply-exhaustion aborts).
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import make_dataset, make_runtime, prepare_quantized
from repro.hw.board import Device, msp430fr5994
from repro.power import (
    CORPUS,
    Capacitor,
    ConstantTrace,
    EmpiricalTrace,
    EnergyHarvester,
    SolarTrace,
    SquareWaveTrace,
    StochasticRFTrace,
    VoltageMonitor,
)
from repro.sim import (
    Atom,
    FastMachine,
    InferenceRuntime,
    IntermittentMachine,
    ProgramCache,
    SensingSession,
    make_machine,
)

RESULT_FIELDS = (
    "runtime", "completed", "predicted_class", "wall_time_s",
    "active_time_s", "charge_time_s", "energy_j", "checkpoint_energy_j",
    "reboots", "executed_cycles", "program_cycles", "dnf_reason",
)


class ToyRuntime(InferenceRuntime):
    """Configurable runtime over an explicit atom list."""

    def __init__(self, atoms, *, name="toy", commit_enabled=True,
                 snapshot_on_warning=False):
        self._atoms = atoms
        self.name = name
        self.commit_enabled = commit_enabled
        self.snapshot_on_warning = snapshot_on_warning

    def build_atoms(self):
        return self._atoms

    def compute_logits(self, x):
        return np.array([1.0, 0.0])


def assert_identical(ref, fast, context=""):
    """Every RunResult field must be *bitwise* equal (== on floats)."""
    for field in RESULT_FIELDS:
        a, b = getattr(ref, field), getattr(fast, field)
        assert a == b, f"{context}: {field}: {a!r} != {b!r}"
    if ref.logits is None:
        assert fast.logits is None, context
    else:
        assert fast.logits is not None, context
        assert np.array_equal(ref.logits, fast.logits), context
    assert ref.energy_by_component == fast.energy_by_component, context


def assert_state_identical(dev_ref, dev_fast, context=""):
    """Post-run device/supply/meter state must match too — a fast session
    continues from it, so drift here becomes result drift one run later."""
    m_ref, m_fast = dev_ref.meter, dev_fast.meter
    assert m_ref.energy_j == m_fast.energy_j, context
    assert m_ref.time_s == m_fast.time_s, context
    assert m_ref.purpose_energy_j == m_fast.purpose_energy_j, context
    assert list(m_ref.energy_j) == list(m_fast.energy_j), context  # key order
    assert dev_ref.reboots == dev_fast.reboots, context
    s_ref, s_fast = dev_ref.supply, dev_fast.supply
    if s_ref is not None:
        assert s_ref.capacitor.voltage == s_fast.capacitor.voltage, context
        assert s_ref.clock_s == s_fast.clock_s, context
        assert s_ref.charge_time_s == s_fast.charge_time_s, context
        assert s_ref.failures == s_fast.failures, context


def run_pair(atoms, *, make_supply=None, commit_enabled=True,
             snapshot_on_warning=False, v_warn=2.2, stall_limit=6,
             max_reboots=10000, n_runs=1, context=""):
    """Run the same program through both engines on twin rigs."""
    results = []
    devices = []
    monitors = []
    for engine in ("reference", "fast"):
        supply = make_supply() if make_supply is not None else None
        device = Device(supply=supply)
        runtime = ToyRuntime(list(atoms), commit_enabled=commit_enabled,
                             snapshot_on_warning=snapshot_on_warning)
        monitor = None
        if snapshot_on_warning and supply is not None:
            monitor = VoltageMonitor(supply, v_warn=v_warn)
        machine = make_machine(device, runtime, engine=engine,
                               monitor=monitor, stall_limit=stall_limit,
                               max_reboots=max_reboots)
        results.append([machine.run(np.zeros(2)) for _ in range(n_runs)])
        devices.append(device)
        monitors.append(monitor)
    for i, (ref, fast) in enumerate(zip(*results)):
        assert_identical(ref, fast, f"{context} run {i}")
    assert_state_identical(devices[0], devices[1], context)
    if monitors[0] is not None:
        assert monitors[0].warnings == monitors[1].warnings, context
    return results[0]


def cpu_atom(cycles, *, commit=False, volatile=0, divisible=False, iters=1,
             label="work", layer=0, component="cpu", fram_reads=0,
             fram_writes=0, sram=0, purpose="compute", commit_words=2):
    return Atom(
        label=label, layer=layer, component=component, cycles=cycles,
        fram_reads=fram_reads, fram_writes=fram_writes, sram_accesses=sram,
        purpose=purpose, commit=commit, commit_words=commit_words,
        volatile_words=volatile, divisible=divisible, iterations=iters,
    )


def random_program(rng):
    """A random but valid atom program exercising every progress semantic."""
    n = int(rng.integers(3, 18))
    atoms = []
    for i in range(n):
        divisible = bool(rng.random() < 0.3)
        # Zero-cycle atoms must carry no traffic: the *reference* meter
        # rejects them (core_booked goes 1 ulp negative), so real runtimes
        # never emit that shape and the sweep should not either.
        cycles = float(rng.choice([0.0, 150.0, 4000.0, 25000.0]))
        busy = cycles > 0
        atoms.append(
            Atom(
                label=f"a{i}",
                layer=i,
                component=str(rng.choice(["cpu", "lea", "dma"])),
                cycles=cycles,
                fram_reads=int(rng.integers(0, 80)) if busy else 0,
                fram_writes=int(rng.integers(0, 40)) if busy else 0,
                sram_accesses=int(rng.integers(0, 120)) if busy else 0,
                purpose=str(rng.choice(["compute", "data"])),
                commit=bool(rng.random() < 0.6),
                commit_words=int(rng.integers(0, 5)),
                volatile_words=int(rng.choice([0, 0, 16, 96])),
                divisible=divisible,
                iterations=int(rng.integers(2, 200)) if divisible else 1,
            )
        )
    return atoms


def random_supply(rng):
    """A random harvester weak enough to force brown-outs."""
    kind = rng.choice(["constant", "square", "rf", "solar", "corpus"])
    power = float(rng.choice([5e-4, 1.5e-3, 3e-3, 6e-3]))
    if kind == "constant":
        trace = ConstantTrace(power)
    elif kind == "square":
        trace = SquareWaveTrace(power, float(rng.choice([0.02, 0.05, 0.2])),
                                float(rng.choice([0.3, 0.5, 0.8])))
    elif kind == "rf":
        trace = StochasticRFTrace(power, seed=int(rng.integers(0, 100)))
    elif kind == "corpus":
        name = str(rng.choice(["rf-markov", "kinetic-walk", "wifi-office"]))
        trace = CORPUS.get(name, seed=int(rng.integers(0, 4)))
        trace = trace.scale_to_mean_power(power)
    else:
        trace = SolarTrace(power, period_s=float(rng.choice([0.5, 2.0])))
    cap = Capacitor(float(rng.choice([10e-6, 33e-6, 100e-6])))
    return EnergyHarvester(trace, cap, charge_timeout_s=2.0)


# ---------------------------------------------------------------------------
# Randomized differential sweeps
# ---------------------------------------------------------------------------


class TestRandomizedConformance:
    @pytest.mark.parametrize("seed", range(20))
    def test_harvested_random_programs(self, seed):
        rng = np.random.default_rng(seed)
        atoms = random_program(rng)
        commit_enabled = bool(rng.random() < 0.7)
        snapshot = bool(rng.random() < 0.4)
        run_pair(
            atoms,
            make_supply=lambda: random_supply(np.random.default_rng(seed + 1000)),
            commit_enabled=commit_enabled,
            snapshot_on_warning=snapshot,
            stall_limit=int(rng.integers(2, 6)),
            max_reboots=300,
            context=f"seed={seed}",
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_continuous_random_programs(self, seed):
        rng = np.random.default_rng(100 + seed)
        atoms = random_program(rng)
        run_pair(
            atoms,
            commit_enabled=bool(rng.random() < 0.7),
            n_runs=3,  # back-to-back runs share the meter: carryover must match
            context=f"seed={seed}",
        )


# ---------------------------------------------------------------------------
# Model-zoo matrix: real runtimes on the four trace families
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mnist_q():
    return prepare_quantized("mnist", seed=0)


@pytest.fixture(scope="module")
def mnist_x():
    return make_dataset("mnist", 16, seed=3).x[:3]


def trace_for(kind):
    if kind == "constant":
        return ConstantTrace(2e-3)
    if kind == "square":
        return SquareWaveTrace(5e-3, 0.05, 0.3)
    if kind == "rf":
        return StochasticRFTrace(1.5e-3, seed=7)
    if kind.startswith("corpus:"):
        return CORPUS.get(kind.split(":", 1)[1], seed=7).scale_to_mean_power(2e-3)
    return SolarTrace(5e-3, period_s=1.0)


def zoo_session(qmodel, runtime_name, engine, kind):
    harvester = EnergyHarvester(trace_for(kind), Capacitor(100e-6),
                                charge_timeout_s=5.0)
    device = msp430fr5994(supply=harvester)
    runtime = make_runtime(runtime_name, qmodel)
    monitor = VoltageMonitor(harvester) if runtime.snapshot_on_warning else None
    return SensingSession(device, runtime, monitor=monitor, engine=engine), device


class TestZooConformance:
    @pytest.mark.parametrize("kind", ["constant", "square", "rf", "solar",
                                      "corpus:rf-markov",
                                      "corpus:kinetic-walk"])
    @pytest.mark.parametrize("runtime_name", ["SONIC", "TAILS", "ACE+FLEX"])
    def test_harvested_sessions(self, mnist_q, mnist_x, runtime_name, kind):
        ref, dev_ref = zoo_session(mnist_q, runtime_name, "reference", kind)
        fast, dev_fast = zoo_session(mnist_q, runtime_name, "fast", kind)
        st_ref = ref.run(mnist_x)
        st_fast = fast.run(mnist_x)
        assert len(st_ref.results) == len(st_fast.results)
        for i, (a, b) in enumerate(zip(st_ref.results, st_fast.results)):
            assert_identical(a, b, f"{runtime_name}/{kind}/{i}")
        assert_state_identical(dev_ref, dev_fast, f"{runtime_name}/{kind}")

    @pytest.mark.parametrize("runtime_name",
                             ["BASE", "SONIC", "TAILS", "ACE", "ACE+FLEX"])
    def test_continuous_sessions(self, mnist_q, mnist_x, runtime_name):
        ref = SensingSession(Device(), make_runtime(runtime_name, mnist_q))
        fast = SensingSession(Device(), make_runtime(runtime_name, mnist_q),
                              engine="fast")
        st_ref = ref.run(mnist_x)
        st_fast = fast.run(mnist_x)
        for i, (a, b) in enumerate(zip(st_ref.results, st_fast.results)):
            assert_identical(a, b, f"{runtime_name}/cont/{i}")

    def test_dnf_prone_runtimes_under_weak_supply(self, mnist_q, mnist_x):
        """BASE and plain ACE earn Figure 7(b)'s X either way."""
        for name in ("BASE", "ACE"):
            ref, dev_ref = zoo_session(mnist_q, name, "reference", "square")
            fast, dev_fast = zoo_session(mnist_q, name, "fast", "square")
            st_ref = ref.run(mnist_x)
            st_fast = fast.run(mnist_x)
            assert st_ref.dnf > 0  # the paper's premise
            for a, b in zip(st_ref.results, st_fast.results):
                assert_identical(a, b, name)
            assert_state_identical(dev_ref, dev_fast, name)


# ---------------------------------------------------------------------------
# Reference-machine edge cases the fast path must honor exactly
# ---------------------------------------------------------------------------


def weak_supply(power_w=2e-3, cap_uf=20.0, timeout_s=600.0):
    return EnergyHarvester(
        ConstantTrace(power_w),
        Capacitor(cap_uf * 1e-6, v_on=3.5, v_off=1.8),
        efficiency=1.0,
        charge_timeout_s=timeout_s,
    )


class TestEdgeCases:
    def test_max_reboots_exhaustion(self):
        atoms = [cpu_atom(20000, commit=True, divisible=True, iters=2,
                          label=f"a{i}", layer=i) for i in range(500)]
        results = run_pair(atoms, make_supply=weak_supply, max_reboots=3,
                           context="max_reboots")
        assert not results[0].completed
        assert "max_reboots" in results[0].dnf_reason

    def test_stall_limit_dnf(self):
        atoms = [cpu_atom(20000, label=f"a{i}", layer=i) for i in range(40)]
        results = run_pair(atoms, make_supply=weak_supply,
                           commit_enabled=False, stall_limit=4,
                           context="stall")
        assert not results[0].completed
        assert "no durable progress" in results[0].dnf_reason

    def test_failure_during_restore(self):
        """machine.py's pathological branch: the capacitor swing is smaller
        than the restore cost, so every recharge browns out inside restore
        and the run must still terminate (stall DNF) identically."""
        def tiny_swing():
            return EnergyHarvester(
                ConstantTrace(2e-6),  # weak: recharge stops right at v_on
                Capacitor(0.1e-6, v_on=1.81, v_off=1.8, v_max=3.6),
                charge_timeout_s=1.0,
            )

        atoms = [cpu_atom(50000, commit=True, label=f"a{i}", layer=i)
                 for i in range(4)]
        results = run_pair(atoms, make_supply=tiny_swing, stall_limit=3,
                           max_reboots=50, context="restore-failure")
        assert not results[0].completed
        # The branch is really taken: restore brown-outs outnumber reboots.
        probe = tiny_swing()
        machine = IntermittentMachine(
            Device(supply=probe),
            ToyRuntime([cpu_atom(50000, commit=True, label=f"a{i}", layer=i)
                        for i in range(4)]),
            stall_limit=3,
        )
        res = machine.run(np.zeros(2))
        assert probe.failures > res.reboots

    def test_supply_exhaustion_aborts(self):
        def dead_supply():
            return EnergyHarvester(ConstantTrace(0.0), Capacitor(20e-6),
                                   charge_timeout_s=0.02)

        atoms = [cpu_atom(10_000_000, commit=True, divisible=True, iters=1000)]
        results = run_pair(atoms, make_supply=dead_supply,
                           context="dead-supply")
        assert not results[0].completed
        assert "too little energy" in results[0].dnf_reason

    def test_flex_snapshot_path(self):
        """On-demand snapshots (volatile chains + voltage monitor)."""
        atoms = []
        for i in range(12):
            atoms.append(cpu_atom(5000, commit=True, volatile=64,
                                  label=f"c{i}.fft", layer=i))
            atoms.append(cpu_atom(5000, commit=True, volatile=64,
                                  label=f"c{i}.mpy", layer=i))
            atoms.append(cpu_atom(5000, commit=True, volatile=0,
                                  label=f"c{i}.wb", layer=i))
        results = run_pair(atoms, make_supply=weak_supply,
                           snapshot_on_warning=True, v_warn=2.6,
                           context="flex")
        assert results[0].completed

    def test_continuous_meter_carryover(self):
        """Back-to-back runs accumulate on one meter; later diffs depend on
        the running totals, so bit-identity must survive the carryover."""
        atoms = [cpu_atom(1000, commit=True, fram_writes=8, sram=16,
                          label=f"a{i}", layer=i) for i in range(5)]
        run_pair(atoms, n_runs=4, context="carryover")


# ---------------------------------------------------------------------------
# Corpus-backed supplies: EmpiricalTrace on the exact-replay path
# ---------------------------------------------------------------------------


class TestCorpusSupplies:
    def test_empirical_trace_stays_on_fast_path(self):
        """EmpiricalTrace is whitelisted (its energy is a pure function of
        (t, dt)), so corpus supplies must NOT fall back to the reference
        machine — that is the whole point of pre-rendering generators."""
        supply = EnergyHarvester(CORPUS.get("rf-markov"), Capacitor(20e-6))
        machine = FastMachine(Device(supply=supply), ToyRuntime([cpu_atom(100)]))
        assert not machine._needs_fallback()

    @pytest.mark.parametrize("end", ["loop", "hold", "dead"])
    def test_end_policies_conform(self, end):
        """All three end-of-trace policies replay identically: loop wraps
        mid-session, hold keeps harvesting, dead eventually aborts the
        recharge — each exercising a different brown-out pattern."""
        def make_supply():
            trace = EmpiricalTrace(
                [0.0, 0.004, 0.01, 0.02], [6e-3, 0.0, 2.5e-3], end=end)
            return EnergyHarvester(trace, Capacitor(20e-6),
                                   charge_timeout_s=0.5)

        atoms = [cpu_atom(20000, commit=True, label=f"a{i}", layer=i)
                 for i in range(12)]
        results = run_pair(atoms, make_supply=make_supply, stall_limit=4,
                           max_reboots=200, context=f"corpus-end-{end}")
        if end == "dead":  # a dead recording cannot recharge forever
            assert not results[0].completed
            assert "too little energy" in results[0].dnf_reason

    def test_loop_wraps_many_cycles_in_one_session(self):
        """A short recording under a long multi-inference session: the
        clock laps the trace hundreds of times and every wrap must land
        on the same prefix-sum cell in both engines."""
        trace = CORPUS.get("testbed-square").slice(0.0, 0.1)  # 2 periods
        run_pair(
            [cpu_atom(30000, commit=True, label=f"a{i}", layer=i)
             for i in range(8)],
            make_supply=lambda: EnergyHarvester(
                trace, Capacitor(33e-6), charge_timeout_s=2.0),
            n_runs=3,
            context="corpus-loop-wrap",
        )


# ---------------------------------------------------------------------------
# Fallback + engine plumbing
# ---------------------------------------------------------------------------


class TestFallbackAndPlumbing:
    def test_voltage_logging_falls_back_identically(self):
        atoms = [cpu_atom(20000, commit=True, label=f"a{i}", layer=i)
                 for i in range(10)]
        h_ref, h_fast = weak_supply(), weak_supply()
        h_ref.enable_logging(1e-3)
        h_fast.enable_logging(1e-3)
        ref = IntermittentMachine(Device(supply=h_ref), ToyRuntime(list(atoms)))
        fast = FastMachine(Device(supply=h_fast), ToyRuntime(list(atoms)))
        assert_identical(ref.run(np.zeros(2)), fast.run(np.zeros(2)), "logging")
        assert h_ref.voltage_log == h_fast.voltage_log

    def test_trace_subclass_falls_back_identically(self):
        """The reference path calls ``trace.energy`` twice per draw, the
        replay once — a stateful custom trace would diverge, so it must
        delegate to the reference machine instead."""
        class CountingTrace(ConstantTrace):
            calls = 0

            def energy(self, t, dt):
                CountingTrace.calls += 1
                return super().energy(t, dt)

        def supply_with(trace_cls):
            return EnergyHarvester(
                trace_cls(2e-3),
                Capacitor(20e-6, v_on=3.5, v_off=1.8),
                efficiency=1.0,
            )

        atoms = [cpu_atom(20000, commit=True, label=f"a{i}", layer=i)
                 for i in range(10)]
        fast = FastMachine(Device(supply=supply_with(CountingTrace)),
                           ToyRuntime(list(atoms)))
        assert fast._needs_fallback()
        ref = IntermittentMachine(Device(supply=supply_with(CountingTrace)),
                                  ToyRuntime(list(atoms)))
        assert_identical(ref.run(np.zeros(2)), fast.run(np.zeros(2)),
                         "custom-trace")

    def test_monitor_subclass_falls_back(self):
        class ChattyMonitor(VoltageMonitor):
            pass

        h = weak_supply()
        machine = FastMachine(
            Device(supply=h),
            ToyRuntime([cpu_atom(100)], snapshot_on_warning=True),
            monitor=ChattyMonitor(h),
        )
        assert machine._needs_fallback()
        assert machine.run(np.zeros(2)).completed

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            make_machine(Device(), ToyRuntime([cpu_atom(10)]), engine="warp")
        with pytest.raises(ConfigurationError):
            SensingSession(Device(), ToyRuntime([cpu_atom(10)]), engine="warp")

    def test_ctor_validation_matches_reference(self):
        h = weak_supply()
        rt = ToyRuntime([cpu_atom(10)], snapshot_on_warning=True)
        with pytest.raises(ConfigurationError):
            FastMachine(Device(supply=h), rt)  # needs a monitor
        with pytest.raises(ConfigurationError):
            FastMachine(Device(), rt, stall_limit=0)

    def test_program_cache_shares_per_model(self, mnist_q):
        cache = ProgramCache()
        rt_a = make_runtime("TAILS", mnist_q)
        rt_b = make_runtime("TAILS", mnist_q)
        m1 = FastMachine(Device(), rt_a, cache=cache)
        m2 = FastMachine(Device(), rt_b, cache=cache)
        m1.run(np.zeros((1, 28, 28)))
        m2.run(np.zeros((1, 28, 28)))
        assert cache.misses == 1 and cache.hits == 1
        assert len(cache) == 1
        assert "1 compiled programs" in cache.summary()
        # A different runtime type over the same model compiles separately.
        m3 = FastMachine(Device(), make_runtime("SONIC", mnist_q), cache=cache)
        m3.run(np.zeros((1, 28, 28)))
        assert cache.misses == 2

    def test_toy_runtimes_compile_uncached(self):
        cache = ProgramCache()
        machine = FastMachine(Device(), ToyRuntime([cpu_atom(10)]), cache=cache)
        machine.run(np.zeros(2))
        machine.run(np.zeros(2))  # per-machine memo: one compile, no cache
        assert len(cache) == 0 and cache.misses == 1


# ---------------------------------------------------------------------------
# Adversarial harvested battery: stressors aimed at the batched replay's
# seams (storm routing, bracketing fallback, recharge walks, restores)
# ---------------------------------------------------------------------------


def square_supply(power_w=2.5e-3, cap_uf=20.0, period_s=0.05, duty=0.3,
                  timeout_s=600.0, **cap_kw):
    """The paper-testbed trace family, sized to force brown-outs."""
    return EnergyHarvester(
        SquareWaveTrace(power_w, period_s, duty),
        Capacitor(cap_uf * 1e-6, **cap_kw),
        charge_timeout_s=timeout_s,
    )


class TestAdversarialHarvested:
    """Every scenario is differential — bit-identical RunResults, meter
    dicts (values and key order), and supply/monitor end state via
    ``run_pair`` — and each also asserts the adversarial condition it is
    named for actually occurred, so a scheduling change in the fast
    engine cannot quietly turn the test into a no-op."""

    def test_brownout_mid_divisible_atom(self):
        """A long loop atom on a small capacitor: brown-outs bracket
        *inside* the atom, and resumption continues mid-iteration."""
        atoms = [
            cpu_atom(400, commit=True, label="head", layer=0),
            cpu_atom(2_000_000, commit=True, divisible=True, iters=5000,
                     label="loop", layer=1),
            cpu_atom(400, commit=True, label="tail", layer=2),
        ]
        results = run_pair(
            atoms, make_supply=lambda: square_supply(cap_uf=15.0),
            max_reboots=500, context="mid-divisible")
        assert results[0].completed
        assert results[0].reboots > 0

    def test_brownout_mid_atom_without_commit(self):
        """Commits off: every brown-out lands mid-atom and the whole
        program replays from the top (the bracketing fallback must book
        the scaled partial draw of the interrupted atom identically)."""
        atoms = [cpu_atom(30000, label=f"a{i}", layer=i) for i in range(10)]
        results = run_pair(
            atoms, make_supply=lambda: square_supply(cap_uf=33.0),
            commit_enabled=False, stall_limit=8, max_reboots=300,
            context="mid-atom-nocommit")
        assert results[0].reboots > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_restore_failure_during_replay_battery(self, seed):
        """Randomized tiny-swing supplies: recharge stops barely above
        v_off, so restores brown out repeatedly *during replay* before
        the run terminates — both engines must walk the same doomed
        restore sequence."""
        rng = np.random.default_rng(400 + seed)

        def tiny_swing():
            # Swing barely above v_off: recharge stops at ~v_on and the
            # restore draw alone browns the capacitor out again.
            return EnergyHarvester(
                ConstantTrace(2e-6),
                Capacitor(0.1e-6, v_on=1.81, v_off=1.8, v_max=3.6),
                charge_timeout_s=1.0,
            )

        atoms = [cpu_atom(int(rng.choice([30000, 50000, 80000])),
                          commit=True, volatile=int(rng.choice([0, 64])),
                          label=f"a{i}", layer=i)
                 for i in range(int(rng.integers(3, 7)))]
        results = run_pair(atoms, make_supply=tiny_swing, stall_limit=3,
                           max_reboots=60, context=f"restore-replay-{seed}")
        assert not results[0].completed
        # The adversarial branch is really exercised: restore brown-outs
        # mean supply failures outnumber counted reboots.
        probe = tiny_swing()
        machine = IntermittentMachine(
            Device(supply=probe), ToyRuntime(list(atoms)), stall_limit=3,
            max_reboots=60)
        res = machine.run(np.zeros(2))
        assert probe.failures > res.reboots

    @pytest.mark.parametrize("end", ["loop", "hold", "dead"])
    @pytest.mark.parametrize("name", ["rf-markov", "kinetic-walk"])
    def test_corpus_end_policy_battery(self, name, end):
        """Corpus recordings sliced short and re-ended under each policy:
        the session laps the recording, holds its final power, or starves
        — three different brown-out/recharge shapes per corpus family."""
        # Slice the recording short so the clock laps it ("loop"), rides
        # its final segment ("hold"), or outlives it ("dead").
        base = CORPUS.get(name, seed=3).slice(0.0, 0.1) \
            .scale_to_mean_power(2.5e-3)

        def make_supply():
            trace = EmpiricalTrace(base.times, base.powers, end=end)
            return EnergyHarvester(trace, Capacitor(20e-6),
                                   charge_timeout_s=0.5)

        atoms = [cpu_atom(25000, commit=True, label=f"a{i}", layer=i)
                 for i in range(10)]
        results = run_pair(atoms, make_supply=make_supply, stall_limit=4,
                           max_reboots=300, context=f"corpus-{name}-{end}")
        if end == "dead":
            assert not results[0].completed

    def test_near_zero_capacitance_supply(self):
        """Degenerate buffer: the swing holds almost no energy, so nothing
        ever fits and the run stalls out — identically."""
        def nano_cap():
            return EnergyHarvester(
                ConstantTrace(1e-3),
                Capacitor(1e-9, v_on=3.5, v_off=1.8),
                charge_timeout_s=1.0,
            )

        atoms = [cpu_atom(5000, commit=True, label=f"a{i}", layer=i)
                 for i in range(3)]
        results = run_pair(atoms, make_supply=nano_cap, stall_limit=3,
                           max_reboots=40, context="nano-cap")
        assert not results[0].completed

    def test_always_brownout_supply(self):
        """The supply recharges fine but every execution attempt browns
        out immediately (atom cost exceeds the full swing)."""
        atoms = [cpu_atom(4_000_000, commit=True, label="huge", layer=0)]
        results = run_pair(
            atoms, make_supply=lambda: square_supply(cap_uf=10.0),
            stall_limit=3, max_reboots=40, context="always-brownout")
        assert not results[0].completed
        assert "no durable progress" in results[0].dnf_reason

    def test_dead_supply_never_reaches_v_on(self):
        """Zero harvest: the first recharge aborts on the charge timeout
        (the recharge batching must observe the timeout step exactly)."""
        def dead():
            return EnergyHarvester(ConstantTrace(0.0), Capacitor(20e-6),
                                   charge_timeout_s=0.05)

        atoms = [cpu_atom(2_000_000, commit=True, divisible=True, iters=500)]
        results = run_pair(atoms, make_supply=dead, context="dead-timeout")
        assert not results[0].completed
        assert "too little energy" in results[0].dnf_reason

    @pytest.mark.parametrize("seed", range(10))
    def test_snapshot_storm_battery(self, seed):
        """Randomized FLEX-style programs with volatile chains and a high
        warning level: long stretches run below v_warn, driving the storm
        (scalar) routing and its hand-offs back to the batch path."""
        rng = np.random.default_rng(700 + seed)
        atoms = []
        for i in range(int(rng.integers(6, 24))):
            atoms.append(cpu_atom(
                int(rng.choice([2000, 9000, 30000])),
                commit=bool(rng.random() < 0.8),
                volatile=int(rng.choice([0, 48, 96])),
                label=f"s{i}", layer=i))
        power_w = float(rng.choice([1.5e-3, 3e-3]))
        cap_uf = float(rng.choice([15.0, 33.0]))
        duty = float(rng.choice([0.3, 0.6]))
        results = run_pair(
            atoms,
            make_supply=lambda: square_supply(
                power_w=power_w, cap_uf=cap_uf, duty=duty),
            snapshot_on_warning=True,
            v_warn=float(rng.choice([2.4, 3.0, 3.4])),
            stall_limit=6, max_reboots=400,
            context=f"storm-{seed}")
        assert results[0].reboots >= 0  # differential asserts did the work

    def test_storm_session_carryover(self):
        """Multi-run FLEX session on one supply/meter: the storm routing's
        deferred bookings must survive the run boundary bit-exactly."""
        atoms = []
        for i in range(8):
            atoms.append(cpu_atom(8000, commit=True, volatile=64,
                                  label=f"c{i}", layer=i))
            atoms.append(cpu_atom(8000, commit=True, volatile=0,
                                  label=f"w{i}", layer=i))
        run_pair(atoms, make_supply=lambda: square_supply(cap_uf=33.0),
                 snapshot_on_warning=True, v_warn=3.0, n_runs=4,
                 max_reboots=400, context="storm-carryover")
