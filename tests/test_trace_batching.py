"""Property tests pinning the segment-table exports to the scalar paths.

The fast engine (``repro.sim.fastsim``) replaces the reference machine's
per-draw scalar calls with batched tables:

- per-segment *clock* tables built with ``np.cumsum`` over the event dts,
- per-segment *harvested-charge* tables built with ``trace.energy_batch``,
- deferred meter flushes built with ``np.add.accumulate``.

Each substitution is only sound because it is *bitwise* equal to the
scalar recurrence it replaces.  These tests pin every one of those
identities per trace family, so a numpy upgrade or a trace refactor that
silently breaks exactness fails here first — before it shows up as a
conformance diff deep inside a harvested replay.
"""

import math
import signal

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.power import (
    CORPUS,
    ConstantTrace,
    EmpiricalTrace,
    SolarTrace,
    SquareWaveTrace,
    StochasticRFTrace,
)

# One representative per trace family (plus each empirical end policy —
# they take different branches in the vectorized lookup).
FAMILIES = {
    "constant": lambda: ConstantTrace(2.5e-3),
    "square": lambda: SquareWaveTrace(5e-3, 0.05, 0.3),
    "square-full-duty": lambda: SquareWaveTrace(5e-3, 0.02, 1.0),
    "solar": lambda: SolarTrace(5e-3, period_s=1.0),
    "rf": lambda: StochasticRFTrace(1.5e-3, seed=11),
    "empirical-loop": lambda: EmpiricalTrace(
        [0.0, 0.004, 0.01, 0.02], [6e-3, 0.0, 2.5e-3], end="loop"),
    "empirical-hold": lambda: EmpiricalTrace(
        [0.0, 0.004, 0.01, 0.02], [6e-3, 0.0, 2.5e-3], end="hold"),
    "empirical-dead": lambda: EmpiricalTrace(
        [0.0, 0.004, 0.01, 0.02], [6e-3, 0.0, 2.5e-3], end="dead"),
    "corpus": lambda: CORPUS.get("rf-markov", seed=5),
}


# Families whose lookup depends on how far into the trace a window
# starts: half their windows start late, past the horizon wrap included.
LATE_STARTS = {"rf": (100.0, 1200.0)}


def random_windows(rng, n=200, late=None):
    """Starts/dts shaped like the replay's: atom draws (us..ms), recharge
    steps (1 ms), zero-length windows, and period-straddling spans.
    ``late=(lo, hi)`` moves the second half of the starts into ``[lo, hi)``."""
    starts = rng.uniform(0.0, 2.0, n)
    dts = rng.choice(
        [0.0, 1e-6, 3.7e-5, 1e-3, 2.3e-3, 0.049, 0.31], n)
    if late is not None:
        starts[n // 2:] = rng.uniform(*late, n - n // 2)
    return starts, dts


class TestEnergyBatchPinsScalar:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_elementwise_bitwise_equal(self, family, seed):
        trace = FAMILIES[family]()
        rng = np.random.default_rng(10 * seed + 3)
        starts, dts = random_windows(rng, late=LATE_STARTS.get(family))
        batch = trace.energy_batch(starts, dts)
        assert batch.shape == starts.shape
        for i, (t, d) in enumerate(zip(starts, dts)):
            scalar = trace.energy(float(t), float(d))
            assert batch[i] == scalar, (
                f"{family}[{i}]: energy_batch={batch[i]!r} != "
                f"energy={scalar!r} at (t={t!r}, dt={d!r})")

    def test_square_many_period_window_falls_back_exactly(self):
        # > 64 period crossings takes the scalar-loop fallback branch;
        # the result must still be the scalar value, bit for bit.
        trace = SquareWaveTrace(5e-3, 0.01, 0.4)
        starts = np.array([0.0, 0.0037, 12.5])
        dts = np.array([3.0, 1.11, 0.77])
        batch = trace.energy_batch(starts, dts)
        for i in range(starts.size):
            assert batch[i] == trace.energy(float(starts[i]), float(dts[i]))

    @pytest.mark.parametrize("family", ["constant", "square", "corpus"])
    def test_scalar_dt_broadcasts(self, family):
        trace = FAMILIES[family]()
        starts = np.linspace(0.0, 1.0, 37)
        batch = trace.energy_batch(starts, 1e-3)
        assert batch.shape == starts.shape
        for i, t in enumerate(starts):
            assert batch[i] == trace.energy(float(t), 1e-3)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_empty_and_negative_windows(self, family):
        trace = FAMILIES[family]()
        assert trace.energy_batch(np.zeros(0), np.zeros(0)).shape == (0,)
        with pytest.raises(ConfigurationError):
            trace.energy_batch(np.array([0.1]), np.array([-1e-9]))

    def test_square_trusted_twin_matches_checked_entry(self):
        """``energy_batch_trusted`` is the replay's entry point; it must
        be the same function minus validation, never a fork."""
        trace = SquareWaveTrace(5e-3, 0.05, 0.3)
        rng = np.random.default_rng(7)
        starts, dts = random_windows(rng)
        dts = np.asarray(dts, dtype=np.float64)
        checked = trace.energy_batch(starts, dts)
        trusted = trace.energy_batch_trusted(starts, dts)
        assert np.array_equal(checked, trusted)
        assert trace.energy_batch_trusted(np.zeros(0), np.zeros(0)).shape == (0,)


def assert_bitwise_scalar(trace, starts, dts, context=""):
    """``energy_batch`` equals the scalar ``energy`` bit for bit (signed
    zeros included) on every window."""
    starts = np.asarray(starts, dtype=np.float64)
    dts = np.broadcast_to(np.asarray(dts, dtype=np.float64), starts.shape)
    batch = trace.energy_batch(starts, dts)
    scalar = np.array([trace.energy(float(t), float(d))
                       for t, d in zip(starts, dts)], dtype=np.float64)
    bad = np.flatnonzero(batch.view(np.uint64) != scalar.view(np.uint64))
    assert bad.size == 0, (
        f"{context}: {bad.size} mismatches, first at (t={starts[bad[0]]!r}, "
        f"dt={dts[bad[0]]!r}): batch={batch[bad[0]]!r} != "
        f"energy={scalar[bad[0]]!r}")


def recharge_clocks(clock, step, n):
    """The recharge walk's step clocks: ``np.cumsum`` from ``clock``."""
    seg = np.empty(n + 1)
    seg[0] = clock
    seg[1:] = step
    return np.cumsum(seg)[:n]


class TestRechargeShapedBatches:
    """The supplies the default fleet study recharges from, batched the
    way ``_Replay.recharge`` batches them: fixed-step clock blocks."""

    RECHARGE_FAMILIES = {
        "rf": FAMILIES["rf"],
        "rf-fleet": lambda: StochasticRFTrace(
            1.5e-3, mean_on_s=0.024, mean_off_s=0.036, seed=0),
        "solar": FAMILIES["solar"],
        "solar-slow": lambda: SolarTrace(4e-3, period_s=60.0),
    }

    @pytest.mark.parametrize("family", sorted(RECHARGE_FAMILIES))
    @pytest.mark.parametrize("step", [1e-4, 1e-3, 5e-3])
    def test_blocks_bitwise_equal_scalar(self, family, step):
        trace = self.RECHARGE_FAMILIES[family]()
        rng = np.random.default_rng(int(step * 1e5))
        for n in (1, 2, 63, 1000, 65536):
            for clock in (0.0, float(rng.uniform(0.0, 60.0)),
                          float(rng.uniform(590.0, 610.0))):
                assert_bitwise_scalar(
                    trace, recharge_clocks(clock, step, n), step,
                    f"{family} step={step} n={n} clock={clock!r}")

    def test_rf_segment_edges(self):
        trace = StochasticRFTrace(1.5e-3, mean_on_s=0.024, mean_off_s=0.036,
                                  seed=0)
        nominal = 600.0
        starts, dts = [], []
        trace.power(3.0)  # draws the segments up to 3 s
        for start, end, _ in (s for s in trace._segments if s[0] < 3.0):
            for t in (start, math.nextafter(start, math.inf),
                      0.5 * (start + end)):
                # ending exactly on the segment end, one ulp short of it,
                # and crossing it
                for d in (end - t, math.nextafter(end - t, 0.0),
                          math.nextafter(end - t, math.inf), end - t + 1e-3):
                    starts.append(t)
                    dts.append(d)
        for d in (0.0, 1e-12, math.nextafter(1e-12, math.inf), 1e-3):
            for t in (0.0, 0.37, math.nextafter(nominal, 0.0), nominal,
                      trace.horizon_s, 700.0, 1300.0, -0.0, -1e-9, -0.01,
                      -600.5):
                starts.append(t)
                dts.append(d)
        assert_bitwise_scalar(trace, starts, dts, "rf edges")

    def test_solar_period_edges(self):
        period = 1.0
        for peak in (5e-3, 0.0):
            trace = SolarTrace(peak, period_s=period)
            starts, dts = [], []
            for k in (0, 1, 7, 99_999, 100_000):
                p0 = k * period
                half = p0 + 0.5 * period
                for t in (p0, p0 + 0.1, half - 1e-3, math.nextafter(half, 0.0),
                          half, p0 + 0.9, math.nextafter(p0 + period, 0.0)):
                    # ending exactly at p0 + T/2, straddling the next
                    # period's start, and empty
                    for d in (half - t, p0 + period - t + 1e-3, 0.0, 1e-6,
                              2.5 * period):
                        if d >= 0.0:
                            starts.append(t)
                            dts.append(d)
            assert_bitwise_scalar(trace, starts, dts, f"solar peak={peak}")


def eager_segments(mean_power_w, mean_on_s=0.05, mean_off_s=0.05, seed=0,
                   horizon_s=600.0):
    """``StochasticRFTrace``'s segment generation as it ran before it
    became lazy: every segment up front, from one sequential rng."""
    rng = np.random.default_rng(seed)
    segments = []
    t = 0.0
    on = True
    while t < horizon_s:
        dur = float(rng.exponential(mean_on_s if on else mean_off_s))
        dur = max(dur, 1e-4)
        power = (
            float(rng.uniform(0.5, 1.5)) * mean_power_w * (mean_on_s + mean_off_s)
            / mean_on_s
            if on
            else 0.0
        )
        segments.append((t, t + dur, power))
        t += dur
        on = not on
    return segments


class TestLazyRFSegments:
    """Lazily drawn segments are the eagerly drawn ones, in any order."""

    ARGS = dict(mean_power_w=1.5e-3, mean_on_s=0.024, mean_off_s=0.036,
                seed=0)

    def test_horizon_read_draws_the_eager_segments(self):
        for args in (self.ARGS, dict(mean_power_w=1.5e-3, seed=4,
                                     horizon_s=2.0)):
            trace = StochasticRFTrace(**args)
            assert len(trace._segments) == 0  # nothing drawn up front
            assert trace.horizon_s == eager_segments(**args)[-1][1]
            assert trace._segments == eager_segments(**args)

    def test_partial_draws_are_an_eager_prefix(self):
        trace = StochasticRFTrace(**self.ARGS)
        trace.energy(57.0, 1e-3)
        drawn = list(trace._segments)
        assert 0 < len(drawn) < len(eager_segments(**self.ARGS))
        assert drawn[-1][1] > 57.0
        assert drawn == eager_segments(**self.ARGS)[:len(drawn)]

    def test_late_first_query_gives_in_order_bits(self):
        rng = np.random.default_rng(23)
        starts = np.sort(np.concatenate([
            rng.uniform(0.0, 600.0, 400),
            recharge_clocks(float(rng.uniform(0.0, 50.0)), 1e-3, 600),
        ]))
        dts = rng.choice([0.0, 1e-6, 1e-3, 0.049, 0.31], starts.size)
        in_order = StochasticRFTrace(**self.ARGS)
        want = [in_order.energy(float(t), float(d))
                for t, d in zip(starts, dts)]
        want_p = [in_order.power(float(t)) for t in starts]
        late_first = StochasticRFTrace(**self.ARGS)
        got = late_first.energy_batch(starts[::-1], dts[::-1])[::-1]
        assert np.array_equal(np.array(want).view(np.uint64),
                              got.view(np.uint64))
        late_first = StochasticRFTrace(**self.ARGS)
        assert [late_first.power(float(t)) for t in starts[::-1]] \
            == want_p[::-1]
        batches = StochasticRFTrace(**self.ARGS)
        for lo in (900, 500, 0):  # blocks out of order, each drawing more
            part = batches.energy_batch(starts[lo:], dts[lo:])
            assert np.array_equal(part, np.array(want[lo:]))


class TestSegmentTableRecurrences:
    """The exact identities the replay's tables stand on."""

    def test_clock_cumsum_equals_sequential_adds(self):
        # Segment clock table: cumsum([clock, dt0, dt1, ...]) must equal
        # the reference's running ``clock = clock + dt`` bit for bit.
        rng = np.random.default_rng(2)
        for _ in range(20):
            clock = float(rng.uniform(0.0, 600.0))
            dts = rng.choice([1e-6, 3.7e-5, 1e-3, 0.05], 300)
            seg = np.empty(dts.size + 1)
            seg[0] = clock
            seg[1:] = dts
            table = np.cumsum(seg)
            cc = clock
            for k, d in enumerate(dts):
                cc = cc + d
                assert table[k + 1] == cc
            # flush's accumulate is the same scan.
            acc = seg.copy()
            np.add.accumulate(acc, out=acc)
            assert np.array_equal(acc, table)

    def test_charge_table_equals_scalar_recurrence(self):
        """End-to-end pin of the harvested-charge table: batched clocks +
        ``energy_batch`` + the vectorized charge expression reproduce the
        reference's per-draw scalar chain exactly."""
        trace = SquareWaveTrace(5e-3, 0.05, 0.3)
        eff, cap_f = 0.8, 100e-6
        rng = np.random.default_rng(5)
        dts = rng.choice([1e-6, 2.1e-4, 1e-3], 400)
        clock = 0.0137
        seg = np.empty(dts.size + 1)
        seg[0] = clock
        seg[1:] = dts
        clocks = np.cumsum(seg)
        h = trace.energy_batch_trusted(clocks[:-1], np.asarray(dts)) * eff
        chg = (2.0 * h) / cap_f
        cc = clock
        for k, d in enumerate(dts):
            hv = trace.energy(cc, float(d)) * eff
            assert h[k] == hv
            assert chg[k] == (2.0 * hv) / cap_f
            cc = cc + float(d)

    def test_sqrt_square_roundtrip_allows_zero_charge_skip(self):
        """The replay skips zero-charge steps outright because
        ``sqrt(fl(v^2)) == v`` for positive normal doubles (the relative
        error of the square is <= 2^-53, halved by the square root —
        under a quarter ulp, so the rounding returns ``v`` exactly)."""
        rng = np.random.default_rng(9)
        vs = np.concatenate([
            rng.uniform(1.8, 3.6, 20000),   # the capacitor's real range
            np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 20000)),
        ])
        for v in vs:
            v = float(v)
            assert math.sqrt(v ** 2 + 0.0) == v
        # numpy and libm agree on the replay's exact expression shape.
        sq = np.asarray(vs) ** 2
        assert np.array_equal(np.sqrt(sq), vs)

    def test_zero_harvest_contributions_are_exact(self):
        """Masked-out period overlaps contribute ``d * False`` — a signed
        zero — which the accumulating add must erase on a non-negative
        running sum (the identity SquareWaveTrace.energy_batch leans on)."""
        for x in (0.0, 1e-300, 3.7, 1e300):
            assert x + 0.0 == x
            assert x + (-0.0) == x
        assert (0.0 + (-0.0)) == 0.0 and math.copysign(1.0, 0.0 + (-0.0)) > 0


def _scan_segment(trace, local):
    """The first-match linear scan ``StochasticRFTrace`` used before its
    bisect lookup: the oracle the bisect must agree with everywhere."""
    for segment in trace._segments:
        if segment[0] <= local < segment[1]:
            return segment
    return None


def scan_power(trace, t):
    """``StochasticRFTrace.power`` with the segment found by the scan; ``t``
    is reduced onto the trace as ``scan_energy`` reduces it."""
    base = math.floor(t / trace.horizon_s) * trace.horizon_s
    segment = _scan_segment(trace, t - base)
    return 0.0 if segment is None else segment[2]


def scan_energy(trace, t, dt):
    """``StochasticRFTrace.energy``'s loop, with each segment found by the scan."""
    total = 0.0
    remaining = dt
    cur = t
    while remaining > 1e-12:
        base = math.floor(cur / trace.horizon_s) * trace.horizon_s
        local = cur - base
        segment = _scan_segment(trace, local)
        if segment is None:
            cur = base + trace.horizon_s
            continue
        _, end, p = segment
        take = min(end - local, remaining)
        total += p * take
        advanced = cur + take
        cur = advanced if advanced != cur else math.nextafter(cur, math.inf)
        remaining -= take
    return total


class TestStochasticRFLookup:
    """The bisect over segment starts picks the scan's segment, bit for bit."""

    @staticmethod
    def _assert_matches(trace, t, dt):
        assert trace.power(t) == scan_power(trace, t), t
        got = trace.energy(t, dt)
        want = scan_energy(trace, t, dt)
        assert got == want, f"energy({t!r}, {dt!r}) = {got!r} != scan {want!r}"

    def test_segments_tile_the_horizon(self):
        # The bisect's premise: each segment ends on the very float the
        # next one starts at, from 0.0 up to horizon_s.
        trace = FAMILIES["rf"]()
        horizon = trace.horizon_s  # draws every segment
        segments = trace._segments
        assert segments[0][0] == 0.0
        assert segments[-1][1] == horizon
        for (_, end, _), (start, _, _) in zip(segments, segments[1:]):
            assert end == start

    @pytest.mark.parametrize("dt", [0.0, 1e-6, 1e-3, 0.049, 0.7])
    def test_every_segment_edge_and_its_neighbours(self, dt):
        trace = StochasticRFTrace(1.5e-3, seed=4, horizon_s=2.0)
        h = trace.horizon_s  # draws every segment before they are read
        for start, end, _ in trace._segments:
            for x in (start, end):
                for t in (math.nextafter(x, -math.inf), x,
                          math.nextafter(x, math.inf)):
                    self._assert_matches(trace, t, dt)
        self._assert_matches(trace, math.nextafter(h, 0.0), dt)

    @pytest.mark.parametrize("dt", [1e-6, 0.049, 0.7, 2.5])
    def test_horizon_multiples_and_wrapping_windows(self, dt):
        trace = StochasticRFTrace(1.5e-3, seed=4, horizon_s=2.0)
        h = trace.horizon_s
        for k in range(1, 6):
            for t in (k * h, math.nextafter(k * h, 0.0), k * h - 0.3 * dt):
                self._assert_matches(trace, t, dt)

    def test_power_reads_the_segment_energy_reads(self):
        # At a rounded horizon multiple (k = 3 here) ``fmod`` puts ``t`` at
        # the end of the last segment while ``energy`` reads the first:
        # power reduces ``t`` as energy does.
        trace = StochasticRFTrace(1.5e-3, seed=4, horizon_s=2.0)
        for k in range(1, 6):
            t = k * trace.horizon_s
            assert trace.power(t) == pytest.approx(
                trace.energy(t, 1e-7) / 1e-7, rel=1e-6), k

    def test_late_starts(self):
        # 100 s .. 1200 s on the default 600 s horizon: where the scan was
        # slowest and where windows wrap onto a coarser clock ulp.
        trace = FAMILIES["rf"]()
        rng = np.random.default_rng(17)
        starts = rng.uniform(100.0, 1200.0, 60)
        dts = rng.choice([1e-6, 1e-3, 0.049, 0.31], 60)
        for t, dt in zip(starts, dts):
            self._assert_matches(trace, float(t), float(dt))

    @staticmethod
    def _energy_or_fail(trace, t, dt):
        """``trace.energy(t, dt)``, failing after 10 s instead of spinning
        (a livelock regression spins for hours)."""
        def spinning(signum, frame):
            raise AssertionError(f"energy({t!r}, {dt!r}) spins in place")

        previous = signal.signal(signal.SIGALRM, spinning)
        signal.alarm(10)
        try:
            return trace.energy(t, dt)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_window_past_the_horizon_advances_the_clock(self):
        # Past the first horizon, ``cur + take`` can round back onto
        # ``cur`` at a segment end; energy() must still finish, with the
        # first pass's value up to rounding of the clock.
        trace = StochasticRFTrace(1.5e-3, mean_on_s=0.02, mean_off_s=0.04,
                                  seed=0)
        t = 1057.2513109603542  # stalls at a segment end at ~1057.487 s
        local = t - trace.horizon_s
        late = self._energy_or_fail(trace, t, 0.3)
        assert late == pytest.approx(trace.energy(local, 0.3), rel=1e-9)

    def test_snap_branch_always_moves_the_clock(self):
        # About 30+ horizons in, ``floor(cur / horizon_s)`` can round below
        # the multiple ``cur`` sits on (e.g. k = 116); the snap to the next
        # horizon must still move the clock, and the window reads as the
        # trace's start up to rounding of the clock.
        trace = StochasticRFTrace(1.5e-3, mean_on_s=0.02, mean_off_s=0.04,
                                  seed=0)
        first = trace.energy(0.0, 0.049)
        for k in range(1, 200):
            got = self._energy_or_fail(trace, k * trace.horizon_s, 0.049)
            assert got == pytest.approx(first, rel=1e-6), k
