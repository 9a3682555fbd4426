"""A seeded sampler over the fleet's scenario spec space.

The fuzz suites draw their scenarios here: every trace kind (corpus and
mains included), every runtime, and the capacitor, ``v_warn`` and stall
knobs, from small pools so that some specs repeat a key.  A failing
case prints the offending :class:`~repro.fleet.scenario.Scenario` with
:func:`scenario_json`, which is enough to replay it.
"""

import dataclasses
import json
import random

from repro import RUNTIME_ORDER, TASKS
from repro.fleet import TRACE_KINDS, Scenario, TraceSpec
from repro.power import CORPUS

#: The committed sampler seed the fuzz suites share.
FUZZ_SEED = 20261019


def _sample_trace(rng: random.Random, kind: str) -> TraceSpec:
    power = rng.choice((2e-3, 4e-3, 8e-3))
    period = rng.choice((0.02, 0.05, 0.2))
    if kind == "mains":
        return TraceSpec("mains")
    if kind == "constant":
        return TraceSpec("constant", power)
    if kind == "square":
        return TraceSpec("square", power, period, rng.choice((0.3, 0.6, 1.0)))
    if kind == "rf":
        return TraceSpec("rf", power, period, rng.choice((0.3, 0.6)),
                         seed=rng.randrange(3))
    if kind == "solar":
        return TraceSpec("solar", power, period)
    name = rng.choice(CORPUS.names())
    seed = rng.randrange(3) if CORPUS.entry(name).seeded else 0
    return TraceSpec("corpus", rng.choice((0.0, power)), seed=seed,
                     corpus=name)


def sample_scenarios(seed: int, count: int):
    """``count`` specs over every trace kind, every runtime and the
    capacitor, ``v_warn`` and stall knobs, drawn from small pools so
    that some specs repeat a key."""
    rng = random.Random(seed)
    kinds = list(TRACE_KINDS) * (count // len(TRACE_KINDS) + 1)
    runtimes = list(RUNTIME_ORDER) * (count // len(RUNTIME_ORDER) + 1)
    rng.shuffle(kinds)
    rng.shuffle(runtimes)
    out = []
    for i in range(count):
        trace = _sample_trace(rng, kinds[i])
        out.append(Scenario(
            f"fuzz{i}",
            task=rng.choice(TASKS),
            runtime=runtimes[i],
            trace=trace,
            cap_uf=(100.0 if trace.kind == "mains"
                    else rng.choice((47.0, 100.0, 470.0))),
            n_samples=rng.randrange(1, 4),
            seed=rng.randrange(2 ** 16),
            stall_limit=rng.choice((1, 3, 6)),
            give_up_after_dnf=rng.choice((1, 2)),
            v_warn=rng.choice((None, 2.0, 2.6)),
        ))
    return out


def scenario_json(scenario: Scenario) -> str:
    """``scenario`` as JSON, for a failing case's message."""
    return json.dumps(dataclasses.asdict(scenario))
