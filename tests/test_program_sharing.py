"""The program cache: one compiled program per distinct atom program,
whatever model, seed or channel names it came from.

:func:`repro.sim.fastsim.program_key` leaves ``Atom.label`` out, so the
proof obligation is that the compiled tables never depend on a label;
the tests below check it on real programs, check that every paper
runtime compiles once across model seeds, and pin the LRU bound.
"""

import pickle
from dataclasses import fields, replace

import numpy as np
import pytest

from repro import obs
from repro.experiments.common import make_runtime, prepare_quantized
from repro.sim import fastsim
from repro.sim.atoms import Atom
from repro.sim.fastsim import CompiledProgram, ProgramCache, compile_program
from repro.sim.runtime import InferenceRuntime

RUNTIMES = ("BASE", "SONIC", "TAILS", "ACE", "ACE+FLEX")
SEEDS = (0, 1, 7)


def table_bytes(program: CompiledProgram) -> dict:
    """Every table of ``program`` as bytes, its label-free atoms included."""
    out = {
        f.name: pickle.dumps(getattr(program, f.name), protocol=5)
        for f in fields(program) if f.name != "atoms"
    }
    out["atoms"] = pickle.dumps(
        [replace(a, label="") for a in program.atoms], protocol=5)
    return out


def warm_memos(program: CompiledProgram) -> None:
    """Fill the lazy memos the replay builds, so they are compared too."""
    program.draw_tables(100e-6)
    program.ck_draws()


class ModelRuntime(InferenceRuntime):
    """An explicit atom list anchored on a stand-in model."""

    name = "toy"

    def __init__(self, atoms):
        self.qmodel = type("Model", (), {})()
        self._atoms = atoms

    def build_atoms(self):
        return self._atoms


def toy_program(cycles: float):
    return [Atom("load", 0, "dma", 40.0, fram_reads=8, commit=True,
                 commit_words=2),
            Atom("mac", 1, "lea", cycles, sram_accesses=16)]


@pytest.fixture(scope="module")
def models():
    return {(task, seed): prepare_quantized(task, seed=seed)
            for task in ("mnist", "har", "okg") for seed in SEEDS}


class TestLabelFreeKey:
    def test_relabeled_atoms_compile_bytes_equal(self, models):
        runtime = make_runtime("ACE+FLEX", models["mnist", 0])
        atoms = runtime.build_atoms()
        relabeled = [replace(a, label=f"renamed{i}")
                     for i, a in enumerate(atoms)]
        assert all(a.label != b.label for a, b in zip(atoms, relabeled))
        twin = ModelRuntime(relabeled)
        twin.snapshot_on_warning = runtime.snapshot_on_warning
        twin.commit_enabled = runtime.commit_enabled
        assert fastsim.program_key(twin) == fastsim.program_key(runtime)
        a, b = compile_program(runtime), compile_program(twin)
        warm_memos(a)
        warm_memos(b)
        assert table_bytes(a) == table_bytes(b)

    def test_key_tells_value_types_apart(self):
        one_int = ModelRuntime([Atom("a", 0, "cpu", 1)])
        one_float = ModelRuntime([Atom("a", 0, "cpu", 1.0)])
        assert fastsim.program_key(one_int) != fastsim.program_key(one_float)
        flex = ModelRuntime(one_float.build_atoms())
        flex.snapshot_on_warning = True
        assert fastsim.program_key(flex) != fastsim.program_key(one_float)

    @pytest.mark.parametrize("task", ["mnist", "har", "okg"])
    @pytest.mark.parametrize("name", RUNTIMES)
    def test_each_runtime_compiles_once_across_seeds(self, models, task, name):
        cache = ProgramCache()
        programs = [cache.get(make_runtime(name, models[task, seed]))
                    for seed in SEEDS]
        assert cache.misses == 1
        assert cache.hits == len(SEEDS) - 1
        assert all(p is programs[0] for p in programs)
        assert len(cache) == 1


class TestPlanSignature:
    """The cache keys planner runtimes on their plan signature,
    which must split programs exactly where the label-free atoms do."""

    def test_signature_key_partitions_like_the_atom_key(self):
        runtimes = [
            make_runtime(name, prepare_quantized(task, seed=seed))
            for task in ("mnist", "har", "okg") for seed in range(5)
            for name in RUNTIMES
        ]
        plan_keys = [fastsim.content_key(r) for r in runtimes]
        # program_key builds the atoms: the oracle the signature replaces.
        atom_keys = [fastsim.program_key(r) for r in runtimes]
        assert plan_keys != atom_keys  # the signature path is taken
        for i in range(len(runtimes)):
            for j in range(i):
                assert (plan_keys[i] == plan_keys[j]) == \
                    (atom_keys[i] == atom_keys[j]), (i, j)

    def test_content_hit_builds_no_atoms(self, models, monkeypatch):
        cache = ProgramCache()
        cache.get(make_runtime("ACE+FLEX", models["okg", 0]))
        twin = make_runtime("ACE+FLEX", models["okg", 1])
        monkeypatch.setattr(type(twin), "build_atoms", None)
        assert cache.get(twin) is not None
        assert cache.hits == 1

    def test_runtimes_without_a_planner_key_on_atoms(self):
        toy = ModelRuntime(toy_program(100.0))
        assert toy.program_signature() is None
        assert fastsim.content_key(toy) == fastsim.program_key(toy)


class TestContentLru:
    def test_evicts_least_recently_used_past_the_bound(self):
        cache = ProgramCache()
        bound = fastsim._SHARED_PROGRAMS
        keep = []
        for i in range(bound):
            keep.append(ModelRuntime(toy_program(100.0 + i)))
            cache.get(keep[-1])
        first = compile_program(keep[0])
        # A new model with program 0 touches it; program 1 is now oldest.
        keep.append(ModelRuntime(toy_program(100.0)))
        cache.get(keep[-1])
        assert cache.hits == 1
        keep.append(ModelRuntime(toy_program(100.0 + bound)))
        cache.get(keep[-1])
        assert cache.misses == bound + 1
        assert f"{bound} compiled programs, 1 hits" in cache.summary()
        # Program 0 survived; program 1 was evicted and recompiles.
        cache.get(ModelRuntime(toy_program(100.0)))
        assert cache.hits == 2 and cache.misses == bound + 1
        again = cache.get(ModelRuntime(toy_program(101.0)))
        assert cache.misses == bound + 2
        assert table_bytes(again) == table_bytes(compile_program(keep[1]))
        assert table_bytes(cache.get(keep[0])) == table_bytes(first)

    def test_shared_hits_count_under_obs(self):
        cache = ProgramCache()
        obs.reset()
        obs.enable()
        try:
            cache.get(ModelRuntime(toy_program(5.0)))
            cache.get(ModelRuntime(toy_program(5.0)))
            counters = obs.snapshot()["counters"]
        finally:
            obs.reset()
            obs.disable()
        assert counters["sim.program_cache.misses"] == 1
        assert counters["sim.program_cache.hits"] == 1
        assert "1 hits / 1 misses" in cache.summary()
        # Disabled, the cache still shares but the registry stays empty.
        cache.get(ModelRuntime(toy_program(5.0)))
        assert cache.hits == 2 and obs.snapshot()["counters"] == {}


def test_shared_program_replays_each_models_logits(models):
    """Two seeds share a program but each machine computes its own
    model's logits: only costs come from the shared tables."""
    from repro.hw.board import Device
    from repro.sim.fastsim import FastMachine

    cache = ProgramCache()
    x = np.random.default_rng(0).normal(size=(1, 28, 28))
    results = []
    for seed in (0, 1):
        runtime = make_runtime("TAILS", models["mnist", seed])
        results.append(FastMachine(Device(), runtime, cache=cache).run(x))
        np.testing.assert_array_equal(results[-1].logits,
                                      runtime.compute_logits(x))
    assert cache.hits == 1
    assert results[0].energy_j == results[1].energy_j
