"""Thread-safety hammer tests for the process-local caches.

Every cache the serve layer runs concurrent studies over — kernel plan
caches, the spectra cache, the fastsim program cache, the fleet model
cache, and the durable store — must satisfy the same contract under
racing threads: exactly one build per key, a single shared (bit-
identical) artifact, and no torn state.  Each test patches the
expensive constructor with a counting (and deliberately slow) stub, or
drives the real one, then slams it from a barrier-synchronized thread
pool and asserts the build count.
"""

import threading
import time
import types
import weakref

import numpy as np
import pytest

from repro.concurrency import ForkSafeLock, KeyedLocks
from repro.errors import ConfigurationError
from repro.fleet.cache import ModelCache
from repro.fleet.scenario import Scenario
from repro.kernels import bcmplan, fftplan, rfftplan
from repro.kernels.spectra import (
    clear_spectra_cache,
    spectra_cache_stats,
    weight_spectra,
)
from repro.kernels.stats import clear_plan_caches
from repro.sim.atoms import Atom
from repro.store.cache import ResultStore
from repro.store.shards import ShardStore


def _hammer(fn, threads=16):
    """Run ``fn(i)`` on ``threads`` barrier-aligned threads; return results."""
    barrier = threading.Barrier(threads)
    results = [None] * threads
    errors = []

    def work(i):
        barrier.wait()
        try:
            results[i] = fn(i)
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    pool = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    assert not errors, errors
    return results


class _Counting:
    """Wraps a constructor, counting calls and widening the race window."""

    def __init__(self, factory, delay_s=0.005):
        self.factory = factory
        self.delay_s = delay_s
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, *args, **kwargs):
        with self._lock:
            self.calls += 1
        time.sleep(self.delay_s)
        return self.factory(*args, **kwargs)


class TestPrimitives:
    def test_forksafe_lock_context_and_acquire(self):
        lock = ForkSafeLock()
        with lock:
            assert not lock.acquire(blocking=False)
        assert lock.acquire(blocking=False)
        lock.release()

    def test_forksafe_rlock_reenters(self):
        lock = ForkSafeLock(rlock=True)
        with lock:
            with lock:
                pass

    def test_rebuild_replaces_held_lock(self):
        # The after-fork hook in miniature: a held lock becomes a fresh
        # unlocked one, so a child never inherits a locked mutex.
        lock = ForkSafeLock()
        lock.acquire()
        lock._rebuild()
        assert lock.acquire(blocking=False)
        lock.release()

    def test_keyed_locks_one_per_key(self):
        locks = KeyedLocks()
        got = _hammer(lambda i: locks.lock(i % 4))
        assert len(locks) == 4
        for i, lock in enumerate(got):
            assert lock is locks.lock(i % 4)

    def test_keyed_locks_rebuild_drops_table(self):
        locks = KeyedLocks()
        first = locks.lock("a")
        locks._rebuild()
        assert len(locks) == 0
        assert locks.lock("a") is not first


class TestPlanCacheRaces:
    def setup_method(self):
        clear_plan_caches()

    def teardown_method(self):
        clear_plan_caches()

    def test_fft_plan_builds_once_per_length(self, monkeypatch):
        counting = _Counting(fftplan.FFTPlan)
        monkeypatch.setattr(fftplan, "FFTPlan", counting)
        plans = _hammer(lambda i: fftplan.get_fft_plan(64))
        assert counting.calls == 1
        assert all(p is plans[0] for p in plans)

    def test_fft_plan_distinct_lengths_distinct_plans(self, monkeypatch):
        counting = _Counting(fftplan.FFTPlan)
        monkeypatch.setattr(fftplan, "FFTPlan", counting)
        plans = _hammer(lambda i: fftplan.get_fft_plan(32 if i % 2 else 64))
        assert counting.calls == 2
        assert len({id(p) for p in plans}) == 2

    def test_rfft_plan_builds_once(self, monkeypatch):
        counting = _Counting(rfftplan.RFFTPlan)
        monkeypatch.setattr(rfftplan, "RFFTPlan", counting)
        plans = _hammer(lambda i: rfftplan.get_rfft_plan(64))
        assert counting.calls == 1
        assert all(p is plans[0] for p in plans)

    def test_fft_workspaces_are_thread_keyed(self):
        plan = fftplan.get_fft_plan(32)
        x = np.arange(32, dtype=np.int16)

        def run(i):
            out = plan.fft(x, np.zeros(32, dtype=np.int16))
            return (threading.get_ident(), out)

        results = _hammer(run, threads=8)
        # Every thread got its own workspace entry...
        idents = {ident for ident, _ in results}
        ws_threads = {key[0] for key in plan._workspaces}
        assert idents <= ws_threads
        # ...and identical (bit-identical) outputs despite the races.
        ref_re, ref_im, ref_scale = results[0][1]
        for _, (re, im, scale) in results:
            assert np.array_equal(re, ref_re)
            assert np.array_equal(im, ref_im)
            assert scale == ref_scale

    def test_concurrent_fft_matches_serial_bits(self):
        rng = np.random.default_rng(7)
        xs = [
            rng.integers(-2000, 2000, size=64).astype(np.int16)
            for _ in range(8)
        ]
        plan = fftplan.get_fft_plan(64)
        zero = np.zeros(64, dtype=np.int16)
        serial = [plan.fft(x, zero) for x in xs]
        threaded = _hammer(lambda i: plan.fft(xs[i], zero), threads=8)
        for (sr, si, ss), (tr, ti, ts) in zip(serial, threaded):
            assert np.array_equal(sr, tr)
            assert np.array_equal(si, ti)
            assert ss == ts


class TestSpectraCacheRaces:
    def setup_method(self):
        clear_spectra_cache()

    def teardown_method(self):
        clear_spectra_cache()

    def test_one_transform_per_distinct_tensor(self):
        w = np.random.default_rng(3).normal(size=(4, 16))
        specs = _hammer(lambda i: weight_spectra(w))
        stats = spectra_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == len(specs) - 1
        assert all(s is specs[0] for s in specs)
        assert np.array_equal(specs[0], np.fft.fft(w, axis=-1))


class TestProgramCacheRaces:
    def test_one_compile_per_anchor(self, monkeypatch):
        from repro.sim import fastsim

        compiled = object()
        counting = _Counting(lambda runtime: compiled)
        monkeypatch.setattr(fastsim, "compile_program", counting)
        cache = fastsim.ProgramCache()

        class Anchor:
            pass

        anchor = Anchor()
        atoms = [Atom("a0", 0, "cpu", 10.0)]
        runtime = types.SimpleNamespace(
            qmodel=anchor, use_dma=False, bcm_mode="fft", name="toy",
            build_atoms=lambda: atoms, snapshot_on_warning=False,
            commit_enabled=True,
        )
        programs = _hammer(lambda i: cache.get(runtime))
        assert counting.calls == 1
        assert all(p is compiled for p in programs)
        assert cache.misses == 1
        assert cache.hits == len(programs) - 1
        # The weakref eviction still works through the locked path.
        ref = weakref.ref(anchor)
        del anchor, runtime
        if ref() is None:  # pragma: no branch - CPython refcounting
            assert len(cache) == 0

    def test_one_compile_per_distinct_content(self, monkeypatch):
        """16 threads over 4 models whose atoms differ only in their
        labels: one compile, every runtime handed the one program."""
        from repro.sim import fastsim

        compiled = object()
        counting = _Counting(lambda runtime: compiled)
        monkeypatch.setattr(fastsim, "compile_program", counting)
        cache = fastsim.ProgramCache()

        class Anchor:
            pass

        anchors = [Anchor() for _ in range(4)]
        runtimes = [
            types.SimpleNamespace(
                qmodel=anchors[m], use_dma=False, bcm_mode="fft", name="toy",
                build_atoms=lambda m=m: [Atom(f"m{m}.conv", 0, "lea", 10.0),
                                         Atom(f"m{m}.fc", 1, "cpu", 5.0)],
                snapshot_on_warning=False, commit_enabled=True,
            )
            for m in range(4)
        ]
        programs = _hammer(lambda i: cache.get(runtimes[i % 4]))
        assert counting.calls == 1
        assert all(p is compiled for p in programs)
        assert cache.misses == 1
        assert cache.shared == 3
        assert cache.hits == len(programs) - 4
        assert len(cache) == 4


class TestSharedProgramReplay:
    """One compiled program replayed by many threads at once."""

    SEEDS = (0, 1, 2, 3)
    RUNS = 150

    def _runs(self, machine, x):
        return [repr(machine.run_deferred(x)[0]) for _ in range(self.RUNS)]

    def test_threaded_continuous_replay_matches_serial(self):
        """4 models of distinct seeds share one MNIST TAILS program; 4
        threads replay it continuously, each run's meter head different.
        A head slot written into the shared program would let one
        thread's cumsum read another's head."""
        import sys

        from repro.experiments.common import make_runtime, prepare_quantized
        from repro.hw.board import Device
        from repro.sim.fastsim import FastMachine, ProgramCache

        cache = ProgramCache()
        runtimes = [make_runtime("TAILS", prepare_quantized("mnist", seed=s))
                    for s in self.SEEDS]
        x = np.zeros((1, 28, 28))

        def machine(i):
            return FastMachine(Device(), runtimes[i], cache=cache)

        serial = [self._runs(machine(i), x) for i in range(len(runtimes))]
        assert cache.misses == 1 and cache.shared == len(runtimes) - 1
        machines = [machine(i) for i in range(len(runtimes))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = _hammer(lambda i: self._runs(machines[i], x),
                               threads=len(machines))
        finally:
            sys.setswitchinterval(interval)
        assert cache.misses == 1
        for i, (want, got) in enumerate(zip(serial, threaded)):
            bad = sum(w != g for w, g in zip(want, got))
            assert bad == 0, f"model {i}: {bad} of {self.RUNS} runs differ"


class TestModelCacheRaces:
    def test_one_build_per_model_key(self, monkeypatch):
        import repro.experiments.common as common

        built = {}

        def fake_prepare(task, *, compressed, pruned, seed, calib_n):
            return built.setdefault((task, seed), object())

        counting = _Counting(fake_prepare)
        monkeypatch.setattr(common, "prepare_quantized", counting)
        cache = ModelCache()
        # 16 threads over 4 distinct model keys (model_seed varies).
        scenarios = [
            Scenario(name=f"s{i}", model_seed=i % 4) for i in range(16)
        ]
        models = _hammer(lambda i: cache.get(scenarios[i]))
        assert counting.calls == 4
        assert cache.misses == 4
        assert len(cache) == 4
        for i, model in enumerate(models):
            assert model is models[i % 4]

    def test_execution_lock_is_per_key(self):
        cache = ModelCache()
        a = cache.execution_lock(("mnist", 0))
        b = cache.execution_lock(("mnist", 1))
        assert a is cache.execution_lock(("mnist", 0))
        assert a is not b


class TestStoreRaces:
    SCHEMA = (("tag", "str"), ("value", "int"))

    def test_concurrent_appends_then_clean_reopen(self, tmp_path):
        store = ShardStore(tmp_path / "s", self.SCHEMA, shard_rows=16)

        def write(i):
            for j in range(50):
                store.append(tag=f"t{i}", value=i * 1000 + j)

        _hammer(write, threads=8)
        store.flush()
        assert store.committed_rows == 400
        assert store.pending_rows == 0

        reopened = ShardStore(tmp_path / "s", self.SCHEMA)
        assert reopened.recovered == []
        assert reopened.committed_rows == 400
        values = sorted(r["value"] for r in reopened.iter_rows())
        assert values == sorted(
            i * 1000 + j for i in range(8) for j in range(50)
        )

    def test_concurrent_result_store_puts(self, tmp_path):
        from repro.fleet.report import ScenarioResult
        from repro.sim.session import SessionStats

        store = ResultStore(tmp_path / "r", shard_rows=8)

        def result(name):
            return ScenarioResult(
                scenario=Scenario(name=name),
                stats=SessionStats(runtime="ACE+FLEX", results=[]),
                labels=(),
            )

        # 16 threads over 4 distinct keys: concurrent duplicate puts
        # must record each key exactly once.
        def put(i):
            key = f"key-{i % 4}"
            store.put(key, result(f"s{i % 4}"), engine="fast")
            assert store.lookup(key) is not None

        _hammer(put, threads=16)
        store.flush()
        assert len(store) == 4

        reopened = ResultStore(tmp_path / "r")
        assert reopened.recovered_shards == ()
        assert len(reopened) == 4
        for i in range(4):
            assert f"key-{i}" in reopened

    def test_shard_store_rejects_bad_shard_rows(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ShardStore(tmp_path / "x", self.SCHEMA, shard_rows=0)
