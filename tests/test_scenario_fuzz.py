"""Seeded fuzz over whole scenarios: what a result's identity leaves out
must not change a bit.

The result store, the serve queue and the table archive key a result on
its spec alone (:func:`~repro.store.cache.scenario_key`), so the engine
that computed it and the compiled programs it shared with other models
must both be invisible in :func:`encode_result`, which holds every
field of a result but its spec, floats in round-trip form.  Each case
prints the first differing scenario as JSON.
"""

import dataclasses
import random

import pytest

from repro.fleet import ModelCache, execute_scenario
from repro.sim import fastsim
from repro.store.records import encode_result
from tests.sampler import FUZZ_SEED, sample_scenarios, scenario_json

#: The committed budget: sampled specs per case (about 5 s each).
FUZZ_COUNT = 300


@pytest.fixture(scope="module")
def models():
    return ModelCache()


def _first_difference(pairs):
    for scenario, want, got in pairs:
        if encode_result(want) != encode_result(got):
            return scenario
    return None


def test_fuzz_fast_engine_equals_reference(models):
    scenarios = sample_scenarios(FUZZ_SEED, FUZZ_COUNT)
    pairs = [
        (s,
         execute_scenario(s, models.get(s), engine="reference"),
         execute_scenario(s, models.get(s), engine="fast"))
        for s in scenarios
    ]
    bad = _first_difference(pairs)
    if bad is not None:
        pytest.fail("fast and reference results differ for scenario "
                    + scenario_json(bad))


def test_fuzz_shared_program_cache_equals_fresh_caches(models, monkeypatch):
    """One :class:`~repro.sim.fastsim.ProgramCache` across every
    scenario, under two model seeds in shuffled order, against a fresh
    cache per scenario: a content key that merged two programs would
    hand one scenario another's tables."""
    specs = sample_scenarios(FUZZ_SEED, FUZZ_COUNT)
    scenarios = [dataclasses.replace(s, name=f"{s.name}/m{m}", model_seed=m)
                 for s in specs for m in (0, 1)]
    random.Random(FUZZ_SEED).shuffle(scenarios)

    def run(scenario, cache):
        monkeypatch.setattr(fastsim, "PROGRAM_CACHE", cache)
        return execute_scenario(scenario, models.get(scenario), engine="fast")

    shared = fastsim.ProgramCache()
    pairs = [(s, run(s, fastsim.ProgramCache()), run(s, shared))
             for s in scenarios]
    bad = _first_difference(pairs)
    if bad is not None:
        pytest.fail("shared-cache result differs for scenario "
                    + scenario_json(bad))
    assert shared.hits > shared.misses
