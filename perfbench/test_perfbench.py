"""Tests for the benchmark's own helpers (no workload is run)."""

import json
import random
import sys

import pytest

from perfbench import layers, stats, tracing, workloads


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    with tracer.span("outer"):
        clock.tick(1.0)
        with tracer.span("inner"):
            clock.tick(2.0)
            with tracer.span("leaf"):
                clock.tick(4.0)
        clock.tick(8.0)
    assert tracer.self_s == {"outer": 9.0, "inner": 2.0, "leaf": 4.0}
    assert tracer.covered_s == 15.0
    assert sum(tracer.self_s.values()) == tracer.covered_s


def test_self_time_of_recursive_calls_never_double_counts():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def descend(depth):
        clock.tick(1.0)
        if depth:
            descend(depth - 1)
        clock.tick(1.0)

    descend = tracing._wrap(tracer, descend, "layer")  # recursion too
    descend(3)
    assert tracer.self_s["layer"] == 8.0  # the outermost call's duration
    assert tracer.calls["layer"] == 4
    assert tracer.covered_s == 8.0


def test_wrapped_counts_skip_calls_nested_in_the_same_layer():
    tracer = tracing.Tracer(clock=FakeClock())
    rows = []

    def batch(xs):
        return [one(x) for x in xs]

    def one(x):
        return x

    one = tracing._wrap(tracer, one, "logits",
                        lambda a, r, nested: nested or rows.append(1))
    batch = tracing._wrap(tracer, batch, "logits",
                          lambda a, r, nested: nested or rows.append(len(a[0])))
    batch([1, 2, 3])
    one(4)
    assert sum(rows) == 4
    assert tracer.calls["logits"] == 5


def test_spans_of_each_thread_are_separate():
    import threading

    tracer = tracing.Tracer()
    barrier = threading.Barrier(2)

    def work():
        with tracer.span("a"):
            barrier.wait(timeout=10)
            with tracer.span("b"):
                pass

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert tracer.calls == {"a": 2, "b": 2}
    assert tracer.self_s["a"] + tracer.self_s["b"] == pytest.approx(
        tracer.covered_s)


def test_trace_file_round_trips_and_merges(tmp_path):
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock, max_events=1)
    tracer.out_dir = str(tmp_path)
    for _ in range(3):
        with tracer.span("power.energy.rf"):
            clock.tick(0.5)
    tracer.count("sim.inferences", 2)
    tracer.count("power.energy_lookups", 3)
    tracer.dump()
    (payload,) = tracing.read_dir(str(tmp_path))
    assert len(payload["traceEvents"]) == 1
    assert payload["otherData"]["dropped"] == 2
    merged = tracing.merge([payload["otherData"], payload["otherData"]])
    values = layers.per_layer(merged, rounds=2)
    assert values["power.energy_s"] == 1.5
    assert values["power.energy_s.rf"] == 1.5
    assert values["power.energy_lookups"] == 3
    assert values["power.energy_us_per_lookup"] == pytest.approx(5e5)
    assert values["sim.inferences"] == 2


def test_percentile_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(100)]
    assert stats.percentile(samples, 90) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        stats.percentile(samples[:99], 90)
    assert stats.percentile(samples[:20], 50) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        stats.percentile(samples[:19], 50)


def test_error_rate_counts_a_flipped_digest_and_a_failed_job():
    checks = stats.Checks()
    checks.table("fig7", '{"rows": [1]}')
    checks.op(True, "job 1")
    assert checks.error_rate == 0.0
    checks.table("fig7", '{"rows": [2]}')  # one flipped bit of output
    checks.op(False, "job 2 failed")
    assert (checks.failed, checks.attempted) == (2, 4)
    assert checks.error_rate == 0.5
    assert len(checks.problems) == 2


def test_digest_ledger_catches_a_change_between_runs():
    first = stats.Checks()
    first.table("fleet", "a")
    again = stats.Checks(first.digests)
    again.table("fleet", "a")
    assert again.failed == 0
    changed = stats.Checks(first.digests)
    changed.table("fleet", "b")
    assert changed.failed == 1


def test_unattributed_is_never_negative():
    rng = random.Random(0)
    for _ in range(1000):
        wall = rng.uniform(0, 10)
        covered = rng.uniform(0, 30)
        lanes = rng.choice((1, 2))
        value = stats.unattributed(wall, covered, lanes)
        assert value >= 0.0
        assert value <= wall
    assert stats.unattributed(2.0, 1.5) == 0.5
    assert stats.unattributed(2.0, 3.0, lanes=2) == 0.5


def test_wall_s_is_the_part_by_part_median_round():
    from perfbench import run

    plain = [workloads.Round(3.0), workloads.Round(9.0), workloads.Round(4.0)]
    assert run._wall_s(plain) == 4.0
    # A slow spell that hits one part of one round does not count.
    parts = [{"a": 1.0, "b": 5.0}, {"a": 9.0, "b": 6.0}, {"a": 2.0, "b": 7.0},
             {"a": 3.0, "b": 60.0}]
    rounds = [workloads.Round(sum(p.values()), parts=p) for p in parts]
    assert run._wall_s(rounds) == 2.5 + 6.5


def test_time_calls_rebinds_every_imported_reference(monkeypatch):
    import types

    home = types.ModuleType("repro_fake_home")
    home.step = lambda x: x + 1
    user = types.ModuleType("repro_fake_user")
    user.step = home.step  # as ``from repro_fake_home import step``
    monkeypatch.setitem(sys.modules, home.__name__, home)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    durations = []
    tracing.time_calls(home, "step", durations)
    assert home.step(1) == 2 and user.step(2) == 3
    assert len(durations) == 2 and all(d >= 0 for d in durations)


def test_serve_specs_are_seeded_and_half_new():
    first = workloads.serve_specs(7, 0, [])
    assert first == workloads.serve_specs(7, 0, [])
    assert first != workloads.serve_specs(8, 0, [])
    assert len(first) == workloads.SERVE_ROUND_JOBS
    fresh = first[::2]
    assert len({json.dumps(s, sort_keys=True) for s in fresh}) == len(fresh)
    for study in workloads.SERVE_STUDIES:
        assert sum(s["study"] == study for s in fresh) == 5
    assert all(s in first[:i] for i, s in enumerate(first) if i % 2)
    later = workloads.serve_specs(7, 1, fresh)
    assert any(s in fresh for s in later[1::2])



def test_a_serve_round_that_cannot_start_counts_as_failed(tmp_path,
                                                          monkeypatch):
    env = workloads.Env(str(tmp_path), seed=1, checks=stats.Checks())
    monkeypatch.setattr(env, "repro_cmd", lambda args, trace_dir=None: [
        sys.executable, "-c", "print('no server here')"])
    serve = workloads.ServeMixed(env)
    result = serve.round()
    assert result.jobs_s == []
    assert (env.checks.failed, env.checks.attempted) == (1, 1)
    assert "did not start" in env.checks.problems[0]
    assert serve.rounds == 1
