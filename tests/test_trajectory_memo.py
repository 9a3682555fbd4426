"""The trajectory memo a :class:`~repro.fleet.cache.ModelCache` owns.

A fast session's trajectory is keyed on its compiled program and its
scenario with ``name``, ``seed`` and ``model_seed`` blanked.  A key that
leaves out a field the replay reads would serve another supply's
trajectory, a silent wrong answer, so every test here compares with runs
that use no memo, byte for byte (:func:`encode_result` holds every field
of a result but its spec, floats in round-trip form).
"""

import dataclasses
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from repro.fleet import (
    TRACE_KINDS, FleetRunner, ModelCache, Scenario, TraceSpec,
    execute_scenario,
)
from repro.fleet import cache as fleet_cache
from repro.fleet.cache import TrajectoryMemo
from repro.sim.results import RunResult
from repro.store.records import encode_result
from repro.study import Profile, get_study, run_study, study_names
from tests.sampler import FUZZ_SEED, sample_scenarios, scenario_json

FLEET_STUDIES = [n for n in study_names() if get_study(n).fleet_executed]
SPEC = dict(engine="fast", parallel=False)
RUNTIMES = ("BASE", "SONIC", "TAILS", "ACE", "ACE+FLEX")


def unmemoized(scenario: Scenario, models: ModelCache):
    """``scenario``'s result from a run that consults no memo."""
    return execute_scenario(scenario, models.get(scenario), engine="fast")


# ---------------------------------------------------------------------------
# Whole studies through one cache
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def shared_runs():
    """Every fleet-executed study at three seeds through one shared
    cache, each beside its run on a cache of its own."""
    cache = ModelCache()
    runs = []
    for seed in (1, 2, 3):
        for name in FLEET_STUDIES:
            profile = Profile(seed=seed)
            runs.append((name, seed,
                         run_study(name, cache=cache, profile=profile, **SPEC),
                         run_study(name, profile=profile, **SPEC)))
    return cache.trajectories, runs


class TestStudiesThroughOneCache:
    def test_tables_and_results_byte_equal(self, shared_runs):
        _, runs = shared_runs
        for name, seed, got, want in runs:
            # At these seeds no study repeats a key within one run, so a
            # run on its own cache replays every scenario.
            assert want.cache.trajectories.hits == 0, (name, seed)
            assert got.table.to_json() == want.table.to_json(), (name, seed)
            assert ([encode_result(r) for r in got.report.results]
                    == [encode_result(r) for r in want.report.results])

    def test_each_scenario_consults_once_and_fresh_seeds_hit(
            self, shared_runs):
        memo, runs = shared_runs
        scenarios = sum(len(got.report.results) for _, _, got, _ in runs)
        assert memo.hits + memo.misses == scenarios
        # Each miss kept its trajectory (no eviction under the bound).
        assert memo.misses == len(memo) <= memo.size
        # Seeds 2 and 3 replay almost nothing seed 1 did not.
        assert memo.hits > 2 * memo.misses


def test_reference_engine_never_reads_or_fills_the_memo():
    cache = ModelCache()
    profile = Profile(seed=5)
    fast = run_study("sweep-trace", cache=cache, profile=profile, **SPEC)
    memo = cache.trajectories
    before = (len(memo), memo.hits, memo.misses)
    assert before[0] > 0
    ref = run_study("sweep-trace", engine="reference", parallel=False,
                    cache=cache, profile=profile)
    scenario = fast.report.results[0].scenario
    direct = execute_scenario(scenario, cache.get(scenario),
                              engine="reference", trajectories=memo)
    assert (len(memo), memo.hits, memo.misses) == before
    assert ref.table.to_json() == fast.table.to_json()
    assert encode_result(direct) == encode_result(fast.report.results[0])


def test_pool_runs_equal_serial_and_leave_the_memo_alone():
    cache = ModelCache()
    run_study("sweep-capacitor", cache=cache, profile=Profile(seed=7), **SPEC)
    memo = cache.trajectories
    before = (len(memo), memo.hits, memo.misses)
    profile = Profile(seed=8)
    pooled = run_study("sweep-capacitor", engine="fast", workers=2,
                       cache=cache, profile=profile)
    assert pooled.report.workers == 2
    assert (len(memo), memo.hits, memo.misses) == before
    serial = run_study("sweep-capacitor", cache=cache, profile=profile,
                       **SPEC)
    assert memo.hits > before[1]
    assert pooled.table.to_json() == serial.table.to_json()


# ---------------------------------------------------------------------------
# The key
# ---------------------------------------------------------------------------

RF = Scenario("rf", runtime="ACE+FLEX", n_samples=2,
              trace=TraceSpec("rf", 4e-3, period_s=0.05, duty=0.3))
CORPUS_BASE = Scenario("corpus", runtime="ACE+FLEX", n_samples=2,
                       trace=TraceSpec("corpus", seed=1, corpus="rf-markov"))

#: One key field changed at a time: each must miss.
KEY_VARIANTS = [
    ("trace kind", RF, dict(trace=TraceSpec("square", 4e-3, 0.05, 0.3))),
    ("trace power", RF, dict(trace=TraceSpec("rf", 5e-3, 0.05, 0.3))),
    ("trace period", RF, dict(trace=TraceSpec("rf", 4e-3, 0.08, 0.3))),
    ("trace duty", RF, dict(trace=TraceSpec("rf", 4e-3, 0.05, 0.5))),
    ("trace seed", RF, dict(trace=TraceSpec("rf", 4e-3, 0.05, 0.3, seed=1))),
    ("trace corpus", CORPUS_BASE,
     dict(trace=TraceSpec("corpus", seed=1, corpus="wifi-office"))),
    ("cap_uf", RF, dict(cap_uf=220.0)),
    ("n_samples", RF, dict(n_samples=3)),
    ("runtime", RF, dict(runtime="ACE")),
    ("stall_limit", RF, dict(stall_limit=3)),
    ("give_up_after_dnf", RF, dict(give_up_after_dnf=1)),
    ("v_warn", RF, dict(v_warn=2.6)),
]


@pytest.mark.parametrize("field, base, change", KEY_VARIANTS,
                         ids=[v[0] for v in KEY_VARIANTS])
def test_changing_a_key_field_misses(field, base, change):
    models = ModelCache()
    memo = TrajectoryMemo()
    execute_scenario(base, models.get(base), engine="fast", trajectories=memo)
    variant = dataclasses.replace(base, name="variant", **change)
    got = execute_scenario(variant, models.get(variant), engine="fast",
                           trajectories=memo)
    assert (memo.hits, memo.misses) == (0, 2), field
    assert encode_result(got) == encode_result(unmemoized(variant, models))


@pytest.mark.parametrize("base", [RF, CORPUS_BASE], ids=["rf", "corpus"])
def test_blanked_fields_hit_and_keep_their_own_logits(base):
    """``name``, ``seed`` and ``model_seed`` reach only the logits: a
    hit, and a result equal to replaying it."""
    models = ModelCache()
    memo = TrajectoryMemo()
    execute_scenario(base, models.get(base), engine="fast", trajectories=memo)
    other = dataclasses.replace(base, name="other", seed=11, model_seed=3)
    got = execute_scenario(other, models.get(other), engine="fast",
                           trajectories=memo)
    assert (memo.hits, memo.misses) == (1, 1)
    assert encode_result(got) == encode_result(unmemoized(other, models))


# ---------------------------------------------------------------------------
# The memo itself
# ---------------------------------------------------------------------------


def _run() -> RunResult:
    return RunResult("ACE+FLEX", True, logits=np.arange(3.0),
                     predicted_class=2, energy_by_component={"cpu": 1.0})


class TestMemo:
    def test_lru_bound_keeps_the_most_recent(self, monkeypatch):
        monkeypatch.setattr(fleet_cache, "TRAJECTORY_MEMO_SIZE", 2)
        memo = TrajectoryMemo()
        program = object()
        a, b, c = (Scenario(n, cap_uf=cap)
                   for n, cap in (("a", 47.0), ("b", 100.0), ("c", 220.0)))
        memo.put(program, a, [_run()])
        memo.put(program, b, [_run()])
        assert memo.get(program, a) is not None  # a is now the newest
        memo.put(program, c, [_run()])
        assert len(memo) == 2
        assert memo.get(program, b) is None
        assert memo.get(program, a) is not None
        assert memo.get(program, c) is not None

    def test_keys_on_the_program(self):
        memo = TrajectoryMemo()
        memo.put(object(), RF, [_run()])
        assert memo.get(object(), RF) is None

    def test_stores_and_hands_out_logits_free_copies(self):
        memo = TrajectoryMemo()
        program = object()
        run = _run()
        memo.put(program, RF, [run])
        got = memo.get(program, RF)[0]
        assert got.logits is None and got.predicted_class is None
        assert got.energy_by_component == run.energy_by_component
        assert got.energy_by_component is not run.energy_by_component
        got.energy_by_component["cpu"] = 2.0
        run.energy_by_component["cpu"] = 3.0
        assert memo.get(program, RF)[0].energy_by_component == {"cpu": 1.0}
        assert run.logits is not None  # the caller's result is untouched

    def test_entry_holds_its_program_so_its_id_is_not_reused(self):
        memo = TrajectoryMemo()
        program = object()
        memo.put(program, RF, [_run()])
        pid = id(program)
        del program
        assert all(id(object()) != pid for _ in range(1000))
        assert len(memo) == 1


# ---------------------------------------------------------------------------
# A seeded fuzz over whole scenarios
# ---------------------------------------------------------------------------

#: The committed fuzz budget: sampled specs (each runs under two model
#: seeds).
FUZZ_COUNT = 150


def test_sampler_covers_the_spec_space():
    specs = sample_scenarios(FUZZ_SEED, FUZZ_COUNT)
    assert {s.trace.kind for s in specs} == set(TRACE_KINDS)
    assert {s.runtime for s in specs} == set(RUNTIMES)
    assert len({s.cap_uf for s in specs}) > 1
    assert len({s.v_warn for s in specs}) > 1
    assert len({s.stall_limit for s in specs}) > 1
    assert len({s.give_up_after_dnf for s in specs}) > 1


def test_fuzz_shared_memo_equals_unmemoized_runs():
    specs = sample_scenarios(FUZZ_SEED, FUZZ_COUNT)
    scenarios = [dataclasses.replace(s, name=f"{s.name}/m{m}", model_seed=m)
                 for s in specs for m in (0, 1)]
    random.Random(FUZZ_SEED).shuffle(scenarios)
    cache = ModelCache()
    report = FleetRunner(1, engine="fast", cache=cache).run(
        scenarios, on_error="record")
    for got in report.results:
        want = unmemoized(got.scenario, cache)
        if encode_result(got) != encode_result(want):
            pytest.fail("memoized result differs for scenario "
                        + scenario_json(got.scenario))
    memo = cache.trajectories
    assert memo.hits + memo.misses == len(scenarios)
    assert memo.hits >= len(specs)  # every spec's second model seed


# ---------------------------------------------------------------------------
# The serve worker
# ---------------------------------------------------------------------------

#: Run in a fresh interpreter, where no other thread exists when the
#: service is built, so it forks its worker.  Prints one JSON object.
_SERVE_SCRIPT = r"""
import json
from repro import obs
import repro.fleet.cache as fleet_cache
import repro.serve.worker as serve_worker
from repro.serve import JobSpec, StudyService
from repro.study import Profile, run_study

# Patched before the fork, so the worker inherits them: a model cache
# reset after every job, and a memo bound below two sweeps' 50 cells.
serve_worker.WORKER_MODELS = 0
fleet_cache.TRAJECTORY_MEMO_SIZE = 30
spec = dict(engine="fast", parallel=False)
jobs = (("sweep-capacitor", 1), ("sweep-capacitor", 2), ("sweep-power", 3))
obs.enable()
svc = StudyService(workers=1)
report = {"methods": [p.start_method for p in svc._procs], "jobs": []}
for study, seed in jobs:
    before = svc.metrics()["counters"]
    table = svc.run(JobSpec(study, profile=Profile(seed=seed), **spec),
                    timeout=120)
    snap = svc.metrics()
    delta = {k: v - before.get(k, 0) for k, v in snap["counters"].items()}
    want = run_study(study, profile=Profile(seed=seed), **spec)
    report["jobs"].append({
        "equal": table.to_json() == want.table.to_json(),
        "scenarios": len(want.report.results),
        "hits": delta.get("fleet.trajectory_memo.hits", 0),
        "misses": delta.get("fleet.trajectory_memo.misses", 0),
        "models": snap["gauges"]["serve.worker.models"],
        "trajectories": snap["gauges"]["serve.worker.trajectories"],
    })
svc.close()
print(json.dumps(report))
"""


def test_serve_worker_memo_survives_model_resets_within_its_bound():
    out = subprocess.run(
        [sys.executable, "-c", _SERVE_SCRIPT], env=dict(os.environ),
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["methods"] == ["fork"]
    first, second, third = report["jobs"]
    assert all(job["equal"] for job in report["jobs"])
    # Every job leaves an empty model cache behind ...
    assert [job["models"] for job in report["jobs"]] == [0, 0, 0]
    # ... yet a fresh seed of the same study simulates nothing.
    assert first["hits"] == 0
    assert (second["hits"], second["misses"]) == (second["scenarios"], 0)
    assert first["trajectories"] == second["trajectories"] == 25
    # A third study's cells fill the memo to its bound, not past it.
    assert third["misses"] > 5
    assert third["trajectories"] == 30
