"""Seeded generative harvesting families, rendered to empirical traces.

Each generator models one harvesting modality the intermittent-computing
literature evaluates against, draws its randomness from an explicit
``seed`` (``np.random.default_rng``), and *pre-renders* the process into
an :class:`~repro.power.empirical.EmpiricalTrace` — so the stochastic
structure lives in data, replays are exactly reproducible, and the fast
engine's prefix-sum energy path applies unchanged.  Time scales are
compressed relative to the physical processes (a "day" is a few
simulated minutes) to match the repo's millisecond-scale inference
workloads, mirroring how :class:`~repro.power.traces.SolarTrace` already
treats its period.

Generators normalize to a stated mean power where one is given, so
corpus entries are comparable across families; reshaping beyond that is
the job of the :class:`~repro.power.empirical.EmpiricalTrace` transforms.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.power.empirical import EmpiricalTrace


def _rendered(times, powers, mean_power_w=None) -> EmpiricalTrace:
    trace = EmpiricalTrace(times, powers, end="loop")
    if mean_power_w is not None:
        trace = trace.scale_to_mean_power(mean_power_w)
    return trace


def markov_rf(seed: int = 0) -> EmpiricalTrace:
    """Markov-modulated ambient RF: a 3-state (off / scrap / beam) chain
    over 120 s, 40 ms mean dwell, scaled to a 1.5 mW mean.

    Unlike :class:`~repro.power.traces.StochasticRFTrace`'s independent
    on/off renewal process, a Markov chain gives *correlated* bursts: a
    strong-beam state tends to persist (a reader parked nearby), scraps
    cluster, and deep off periods are sticky — the burst-length
    distribution is bimodal rather than exponential.
    """
    rng = np.random.default_rng(seed)
    # States: 0 = off, 1 = scrap (weak ambient), 2 = beam (reader close).
    levels = (0.0, 0.6, 3.0)          # relative power per state
    dwell = (1.5, 0.7, 1.0)           # relative mean dwell per state
    transition = np.array([
        [0.0, 0.8, 0.2],              # off  -> mostly scraps
        [0.45, 0.0, 0.55],            # scrap -> off or beam
        [0.35, 0.65, 0.0],            # beam -> decays via scraps
    ])
    times = [0.0]
    powers = []
    state = 0
    t = 0.0
    while t < 120.0:
        dur = max(float(rng.exponential(dwell[state] * 0.04)), 1e-4)
        level = levels[state]
        if level > 0.0:
            level *= float(rng.uniform(0.7, 1.3))  # per-burst fading
        t += dur
        times.append(t)
        powers.append(level)
        state = int(rng.choice(3, p=transition[state]))
    return _rendered(times, powers, 1.5e-3)


def diurnal_solar(
    seed: int = 0,
    *,
    day_s: float = 240.0,
    cloudiness: float = 0.3,
) -> EmpiricalTrace:
    """One day of diurnal solar with random cloud occlusion.

    The clear-sky envelope, 480 segments peaking at 5 mW, is the positive
    half of a sine (daylight) and zero overnight; ``cloudiness`` in
    [0, 1) sets the fraction of daylight shadowed by clouds, which arrive
    as seeded random fronts attenuating the envelope to 10-45% for tens
    of simulated seconds.
    ``cloudiness=0`` renders the deterministic clear-sky day.
    """
    if day_s <= 0:
        raise ConfigurationError("invalid diurnal_solar parameters")
    if not 0.0 <= cloudiness < 1.0:
        raise ConfigurationError("cloudiness must be in [0, 1)")
    rng = np.random.default_rng(seed)
    n = 480
    edges = np.linspace(0.0, day_s, n + 1)
    seg_s = np.diff(edges)
    mid = (edges[:-1] + edges[1:]) / 2.0
    envelope = np.maximum(0.0, np.sin(2.0 * np.pi * mid / day_s))
    attenuation = np.ones(n)
    if cloudiness > 0.0:
        # Keep drawing cloud fronts until the requested fraction of
        # *daylight* is actually shadowed — fronts landing overnight,
        # past the horizon, or over an existing shadow add nothing, so
        # the realized fraction is measured, not assumed.  The iteration
        # cap only guards degenerate parameter corners; typical targets
        # are met within a few dozen fronts.
        daylight = envelope > 0.0
        target = cloudiness * float(seg_s[daylight].sum())
        for _ in range(2000):
            shadowed = float(seg_s[daylight & (attenuation < 1.0)].sum())
            if shadowed >= target:
                break
            start = float(rng.uniform(0.0, day_s))
            dur = float(rng.exponential(day_s / 12.0))
            factor = float(rng.uniform(0.10, 0.45))
            window = (mid >= start) & (mid < start + dur)
            attenuation[window] = np.minimum(attenuation[window], factor)
    return _rendered(edges, 5e-3 * envelope * attenuation)


def kinetic_walk(
    seed: int = 0,
    *,
    duration_s: float = 180.0,
    step_hz: float = 1.9,
    peak_power_w: float = 4e-3,
    walk_bout_s: float = 20.0,
    rest_bout_s: float = 15.0,
) -> EmpiricalTrace:
    """Kinetic/piezo harvesting from walking: step impulses in bouts.

    Walking bouts (randomized around ``walk_bout_s``) alternate with
    rests; within a bout each heel strike is a short high-power pulse at
    the (jittered) step frequency with per-step amplitude spread — the
    classic spiky wearable-harvester profile: high peak, low mean, and
    dead gaps that straddle the capacitor's turn-on swing.
    """
    if min(duration_s, step_hz, peak_power_w, walk_bout_s, rest_bout_s) <= 0:
        raise ConfigurationError("invalid kinetic_walk parameters")
    rng = np.random.default_rng(seed)
    times = [0.0]
    powers = []

    def emit(dur: float, level: float) -> None:
        times.append(times[-1] + dur)
        powers.append(level)

    pulse_s = min(0.25 / step_hz, 0.12)
    walking = True
    while times[-1] < duration_s:
        if walking:
            bout = float(rng.uniform(0.6, 1.4)) * walk_bout_s
            end = times[-1] + bout
            while times[-1] < min(end, duration_s):
                period = 1.0 / (step_hz * float(rng.uniform(0.9, 1.1)))
                amp = peak_power_w * float(rng.uniform(0.6, 1.0))
                emit(pulse_s, amp)
                emit(max(period - pulse_s, 1e-3), 0.0)
        else:
            emit(float(rng.uniform(0.5, 1.5)) * rest_bout_s, 0.0)
        walking = not walking
    return _rendered(times, powers)


def office_wifi(
    seed: int = 0,
    *,
    day_s: float = 240.0,
    office_fraction: float = 0.4,
) -> EmpiricalTrace:
    """Office WiFi-harvesting duty pattern: beacon bursts in work hours.

    During the "office" fraction of the day the harvester sees periodic
    beacon/traffic bursts (short duty every 0.4 s with load-dependent
    amplitude) over a weak ambient floor; outside office hours only the
    floor remains, and the whole day is scaled to a 0.8 mW mean.  A
    deterministic schedule with seeded per-burst amplitudes: the duty
    *pattern* is infrastructure, the traffic is not.
    """
    if day_s <= 0:
        raise ConfigurationError("invalid office_wifi parameters")
    if not 0.0 < office_fraction <= 1.0:
        raise ConfigurationError("office_fraction must be in (0, 1]")
    rng = np.random.default_rng(seed)
    floor = 0.05
    beacon_period_s = 0.4
    burst_s = 0.25 * beacon_period_s
    office_end = office_fraction * day_s
    times = [0.0]
    powers = []
    t = 0.0
    while t < office_end:
        load = float(rng.uniform(0.5, 2.0))  # traffic-dependent amplitude
        times.append(min(t + burst_s, office_end))
        powers.append(1.0 * load)
        nxt = min(t + beacon_period_s, office_end)
        if nxt > times[-1]:
            times.append(nxt)
            powers.append(floor)
        t = nxt
    if office_end < day_s:
        times.append(day_s)
        powers.append(floor)
    return _rendered(times, powers, 0.8e-3)


def testbed_square(seed: int) -> EmpiricalTrace:
    """The paper's function-generator square wave, rendered empirically.

    Deterministic (``seed`` accepted for corpus-interface uniformity):
    40 periods of :func:`repro.experiments.common.paper_harvester`'s
    5 mW, 50 ms, 30 % duty :class:`~repro.power.traces.SquareWaveTrace`,
    as a recorded trace — the bridge case for validating the empirical
    path against a closed form.
    """
    period_s = 0.05
    times = [0.0]
    powers = []
    for k in range(40):
        times.append(k * period_s + 0.3 * period_s)
        powers.append(5e-3)
        times.append((k + 1) * period_s)
        powers.append(0.0)
    return EmpiricalTrace(times, powers, end="loop")
