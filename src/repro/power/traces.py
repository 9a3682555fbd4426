"""Harvested-power traces.

The paper drives its board from a SIGLENT function generator through a
100 uF capacitor — i.e. a square-wave power profile.  This module provides
that trace plus constant, stochastic RF-like, and solar-like profiles so
experiments can stress different intermittency patterns.

A trace answers one question: how much energy arrives in a window
``[t, t + dt)``.  Closed forms are used where available; the stochastic
trace draws piecewise-constant segments from a seed, on first use, so
runs are reproducible.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from typing import List, Optional, Tuple

import numpy as np

from repro.concurrency import ForkSafeLock, Memo
from repro.errors import ConfigurationError


def _windows(starts, dts) -> Tuple[np.ndarray, np.ndarray]:
    """``energy_batch`` operands as 1-D float64 arrays of one shape.

    Raises :class:`ConfigurationError` on a negative window, as the
    scalar ``energy`` does.
    """
    starts = np.asarray(starts, dtype=np.float64)
    dts_b = np.broadcast_to(np.asarray(dts, dtype=np.float64), starts.shape)
    if np.any(dts_b < 0):
        raise ConfigurationError("dt must be non-negative")
    return starts, dts_b


class PowerTrace:
    """Interface: instantaneous power and windowed energy."""

    def power(self, t: float) -> float:
        """Harvested power (W) at absolute time ``t`` (s)."""
        raise NotImplementedError

    def energy(self, t: float, dt: float) -> float:
        """Energy (J) harvested during ``[t, t + dt)``.

        Default implementation integrates numerically; subclasses override
        with closed forms when possible.
        """
        if dt < 0:
            raise ConfigurationError("dt must be non-negative")
        if dt == 0:
            return 0.0
        steps = max(8, min(4096, int(dt / 1e-4)))
        ts = np.linspace(t, t + dt, steps + 1)
        ps = np.array([self.power(float(u)) for u in ts])
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        return float(trapezoid(ps, ts))

    def harvest_time(self, t: float, energy_j: float) -> Optional[float]:
        """About how long (s) from ``t`` the trace takes to deliver
        ``energy_j``: ``math.inf`` if it never does, ``None`` if the trace
        has no cheap answer.

        An estimate, for sizing batches (the fast engine's recharge
        blocks); a result never depends on it.
        """
        return None

    def energy_batch(self, starts, dts) -> np.ndarray:
        """Vectorized :meth:`energy`: element ``i`` is *bitwise* equal to
        ``energy(float(starts[i]), float(dts[i]))``.

        This is the segment-table export the fast simulation engine
        (:mod:`repro.sim.fastsim`) batches harvested-charge computation
        through, so the equality contract is exact, not approximate —
        ``tests/test_trace_batching.py`` pins it per trace family.  The
        base implementation simply loops over the scalar method (correct
        for any subclass by construction); traces with closed forms
        override it with an exact vectorization.  ``dts`` broadcasts
        against ``starts``; both are 1-D.
        """
        starts = np.asarray(starts, dtype=np.float64)
        dts_b = np.broadcast_to(np.asarray(dts, dtype=np.float64), starts.shape)
        return np.array(
            [self.energy(float(t), float(d)) for t, d in zip(starts, dts_b)],
            dtype=np.float64,
        )


class ConstantTrace(PowerTrace):
    """Steady harvest (e.g. a strong thermal gradient)."""

    def __init__(self, power_w: float) -> None:
        if power_w < 0:
            raise ConfigurationError("power must be non-negative")
        self.power_w = power_w

    def power(self, t: float) -> float:
        return self.power_w

    def energy(self, t: float, dt: float) -> float:
        if dt < 0:
            raise ConfigurationError("dt must be non-negative")
        return self.power_w * dt

    def harvest_time(self, t: float, energy_j: float) -> Optional[float]:
        return energy_j / self.power_w if self.power_w > 0.0 else math.inf

    def energy_batch(self, starts, dts) -> np.ndarray:
        _, dts_b = _windows(starts, dts)
        # Elementwise float64 multiply == the scalar expression per element.
        return self.power_w * dts_b


class SquareWaveTrace(PowerTrace):
    """The function-generator profile of the paper's testbed.

    ``power_w`` during the on-phase of each ``period_s`` window (first
    ``duty`` fraction), zero otherwise.
    """

    def __init__(self, power_w: float, period_s: float, duty: float = 0.5) -> None:
        if power_w < 0 or period_s <= 0 or not 0.0 < duty <= 1.0:
            raise ConfigurationError(
                f"invalid square wave (power={power_w}, period={period_s}, "
                f"duty={duty})"
            )
        self.power_w = power_w
        self.period_s = period_s
        self.duty = duty
        #: Reused elementwise buffers for ``energy_batch_trusted`` (the
        #: replay is single-threaded; allocation dominates otherwise).
        self._batch_scratch = None

    def power(self, t: float) -> float:
        phase = math.fmod(t, self.period_s)
        if phase < 0:
            phase += self.period_s
        return self.power_w if phase < self.duty * self.period_s else 0.0

    def energy(self, t: float, dt: float) -> float:
        if dt < 0:
            raise ConfigurationError("dt must be non-negative")
        # Integrate the on-time overlap exactly, period by period.
        on_len = self.duty * self.period_s
        total_on = 0.0
        start = t
        end = t + dt
        first_period = math.floor(start / self.period_s)
        last_period = math.floor(end / self.period_s)
        for k in range(int(first_period), int(last_period) + 1):
            p0 = k * self.period_s
            lo = max(start, p0)
            hi = min(end, p0 + on_len)
            if hi > lo:
                total_on += hi - lo
        return self.power_w * total_on

    def harvest_time(self, t: float, energy_j: float) -> Optional[float]:
        power = self.power_w
        if power == 0.0:
            return math.inf
        on_len = self.duty * self.period_s
        k = math.floor(t / self.period_s)
        u = t - k * self.period_s
        left = power * (on_len - u) if u < on_len else 0.0
        if energy_j <= left:
            return energy_j / power
        # Whole on-phases, then part of one.
        n, rest = divmod(energy_j - left, power * on_len)
        return (k + 1 + n) * self.period_s + rest / power - t

    def energy_batch(self, starts, dts) -> np.ndarray:
        """Exact vectorization of :meth:`energy`.

        Each element accumulates its period overlaps left to right in the
        same order as the scalar loop; masked-out periods contribute a
        literal ``+ 0.0``, which is exact because the running ``total_on``
        is always non-negative (``x + 0.0 == x`` for ``x >= 0``).  Windows
        spanning many periods fall back to the scalar loop — the fast
        engine's windows are atom draws and millisecond recharge steps,
        never multi-period integrations.
        """
        return self.energy_batch_trusted(*_windows(starts, dts))

    def energy_batch_trusted(self, starts, dts_b) -> np.ndarray:
        """:meth:`energy_batch` minus input validation (which costs more
        than the arithmetic for the fast engine's block sizes).  Callers
        guarantee 1-D float64 arrays of one shape with non-negative
        ``dts_b``; results are bitwise equal to :meth:`energy_batch`.
        """
        n = starts.size
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        period = self.period_s
        on_len = self.duty * period
        # Scratch buffers persist across calls (allocation costs more than
        # the arithmetic at the fast engine's block sizes); only the final
        # ``power_w * total_on`` product is a fresh array handed back.
        scratch = self._batch_scratch
        if scratch is None or scratch[0].size < n:
            scratch = self._batch_scratch = (
                np.empty(n), np.empty(n), np.empty(n), np.empty(n),
                np.empty(n), np.empty(n), np.empty(n, dtype=bool),
                np.empty(n, dtype=bool),
            )
        end = scratch[0][:n]
        first = scratch[1][:n]
        last = scratch[2][:n]
        k = scratch[3][:n]
        hi = scratch[4][:n]
        lo = scratch[5][:n]
        m1 = scratch[6][:n]
        m2 = scratch[7][:n]
        np.add(starts, dts_b, out=end)
        np.divide(starts, period, out=first)
        np.floor(first, out=first)
        np.divide(end, period, out=last)
        np.floor(last, out=last)
        np.subtract(last, first, out=k)
        max_span = int(k.max())
        if max_span > 64:  # pathological window: delegate to the loop
            return PowerTrace.energy_batch(self, starts, dts_b)
        # The j-loop below is the scalar method's period loop with each
        # intermediate computed elementwise into reused buffers (the ops
        # and their order are unchanged, so every float matches the scalar
        # result bit for bit).  Skipped periods contribute ``d * False``
        # — a literal ``+/- 0.0`` — which is exact on the non-negative
        # running ``total_on``.
        total_on = np.zeros(n, dtype=np.float64)
        for j in range(max_span + 1):
            np.add(first, j, out=k)
            np.multiply(k, period, out=lo)  # p0
            np.add(lo, on_len, out=hi)
            np.minimum(end, hi, out=hi)
            np.maximum(starts, lo, out=lo)
            np.subtract(hi, lo, out=hi)  # d = hi - lo
            np.less_equal(k, last, out=m1)
            np.greater(hi, 0.0, out=m2)
            np.logical_and(m1, m2, out=m1)
            np.multiply(hi, m1, out=hi)
            np.add(total_on, hi, out=total_on)
        return self.power_w * total_on


#: Most RF segment tables a process keeps (least recently used first out).
RF_TABLE_LIMIT = 8


class _RFSegments:
    """The segments of one RF parameter tuple, drawn lazily and shared by
    every :class:`StochasticRFTrace` built with that tuple in a process.

    Segments are drawn on first use, in chunks that double in size, from
    one sequential ``default_rng(seed)`` stream: the same draws in the
    same order as generating the whole horizon up front, so each segment
    is the same float whenever, and by whichever trace, it is drawn.
    The table is append-only.  :meth:`extend` draws a chunk into locals
    under the lock, then appends it and publishes ``end`` (then ``done``)
    last, so a reader that sees ``local < end`` without the lock finds
    the segment holding ``local`` already there.  A draw that raises
    (a ``KeyboardInterrupt`` included) leaves the table and its rng as
    they were before it; a table a fork catches mid-draw is reset in the
    child (see :func:`_reset_tables_in_child`).
    """

    #: Segments in the first generation chunk; each later chunk doubles.
    FIRST_CHUNK = 256

    def __init__(self, mean_power_w: float, mean_on_s: float,
                 mean_off_s: float, seed: int, horizon_s: float) -> None:
        self._params = (mean_power_w, mean_on_s, mean_off_s, horizon_s)
        self._seed = seed
        self._lock = ForkSafeLock()
        self._reset()

    def _reset(self) -> None:
        """Forget every segment: back to the undrawn table."""
        self._rng = np.random.default_rng(self._seed)
        self._on = True
        self._chunk = self.FIRST_CHUNK
        # (start, end, power) segments tiling [0, end).  Segment i ends at
        # the very float segment i + 1 starts at, so a bisect over their
        # starts picks the one segment a first-match scan would.
        self.segments: List[Tuple[float, float, float]] = []
        self.starts: List[float] = []
        #: ``(starts, ends, powers)`` arrays of the same segments.
        self.arrays: Tuple[np.ndarray, np.ndarray, np.ndarray] = (
            np.zeros(0), np.zeros(0), np.zeros(0))
        #: ``cum[i]``: energy of segments ``[0, i)`` (an estimate's
        #: table: summed in chunks, so not the scalar adds).
        self.cum = np.zeros(1)
        self.end = 0.0  # where the next segment starts
        #: True once a segment ends at or past the nominal horizon.
        self.done = False

    def extend(self, local: float) -> None:
        """Draw segments until one ends past ``local`` or the nominal
        horizon is covered."""
        with self._lock:
            if self.done or local < self.end:
                return  # another thread drew them first
            _DRAWING.add(self)
            try:
                self._draw(local)
            finally:
                _DRAWING.discard(self)

    def _draw(self, local: float) -> None:
        mean_power_w, on_s, off_s, nominal = self._params
        rng = self._rng
        state = rng.bit_generator.state
        segments = self.segments
        starts = self.starts
        n0 = len(segments)
        try:
            new = []
            t = self.end
            on = self._on
            chunk = self._chunk
            done = False
            while not done and t <= local:
                for _ in range(chunk):
                    dur = float(rng.exponential(on_s if on else off_s))
                    dur = max(dur, 1e-4)
                    power = (
                        float(rng.uniform(0.5, 1.5)) * mean_power_w
                        * (on_s + off_s) / on_s
                        if on
                        else 0.0
                    )
                    new.append((t, t + dur, power))
                    t += dur
                    on = not on
                    if t >= nominal:
                        done = True
                        break
                chunk *= 2
            rows = np.array(new, dtype=np.float64).reshape(-1, 3)
            arrays = tuple(np.concatenate((old, rows[:, j]))
                           for j, old in enumerate(self.arrays))
            cum = np.concatenate((self.cum, self.cum[-1] + np.cumsum(
                rows[:, 2] * (rows[:, 1] - rows[:, 0]))))
            segments.extend(new)
            starts.extend(start for start, _, _ in new)
        except BaseException:
            del segments[n0:]
            del starts[n0:]
            rng.bit_generator.state = state
            raise
        self.arrays = arrays
        self.cum = cum
        self._on = on
        self._chunk = chunk
        self.end = t
        self.done = done


#: Tables some thread is drawing into right now.
_DRAWING: "set[_RFSegments]" = set()

#: RF parameter tuple -> its shared segment table.
_RF_TABLES = Memo(RF_TABLE_LIMIT)


def _reset_tables_in_child() -> None:  # pragma: no cover - runs after fork
    # POSIX fork keeps only the forking thread, so a table another thread
    # was drawing into stays half-drawn in the child, its rng ahead of its
    # published segments.  Start such tables over; the ForkSafeLocks come
    # back unlocked on their own.
    for table in list(_DRAWING):
        table._reset()
    _DRAWING.clear()


if hasattr(os, "register_at_fork"):  # pragma: no branch - CPython >= 3.7
    os.register_at_fork(after_in_child=_reset_tables_in_child)


def clear_rf_segments() -> None:
    """Forget every shared RF segment table (traces built earlier keep
    theirs)."""
    _RF_TABLES.clear()


class StochasticRFTrace(PowerTrace):
    """Bursty ambient-RF-like harvesting: exponential on/off segments.

    The segments are a pure function of the constructor's arguments and
    live in a table shared by every trace built with the same arguments
    in the process (see :class:`_RFSegments`), so a fleet whose cells
    share one supply spec draws them once.  A run that reads only the
    first minute of a 600 s horizon never draws the rest.
    """

    def __init__(
        self,
        mean_power_w: float,
        mean_on_s: float = 0.05,
        mean_off_s: float = 0.05,
        seed: int = 0,
        horizon_s: float = 600.0,
    ) -> None:
        if mean_power_w < 0 or mean_on_s <= 0 or mean_off_s <= 0 or horizon_s <= 0:
            raise ConfigurationError("invalid stochastic trace parameters")
        self.mean_power_w = mean_power_w
        self._args = (mean_power_w, mean_on_s, mean_off_s, seed, horizon_s)
        self._nominal_s = horizon_s
        self._table = _RF_TABLES.get_or_build(
            self._args, lambda: _RFSegments(*self._args))

    def __reduce__(self):
        # The segments are rebuilt (or shared) from the arguments.
        return (type(self), self._args)

    @property
    def _segments(self) -> List[Tuple[float, float, float]]:
        """The segments drawn so far (shared, append-only)."""
        return self._table.segments

    @property
    def horizon_s(self) -> float:
        """Length of the trace: the first segment end at or past the
        requested horizon.  Reading it draws every segment."""
        table = self._table
        if not table.done:
            table.extend(math.inf)
        return table.end

    def _base(self, t: float) -> float:
        """``floor(t / horizon_s) * horizon_s``: where the horizon copy
        holding ``t`` starts.  On ``[0, nominal horizon)`` that is 0.0
        without drawing the rest of the trace: ``horizon_s`` is the first
        segment end at or past the nominal horizon, so ``t < horizon_s``
        and ``floor(t / horizon_s) == 0`` there."""
        if 0.0 <= t < self._nominal_s:
            return 0.0
        horizon = self.horizon_s
        return math.floor(t / horizon) * horizon

    def _segment_at(self, local: float) -> Optional[Tuple[float, float, float]]:
        """The segment containing ``local``; ``None`` outside ``[0, horizon_s)``."""
        table = self._table
        if local >= table.end and not table.done:
            table.extend(local)
        i = bisect_right(table.starts, local) - 1
        if i >= 0:
            segment = table.segments[i]
            if segment[0] <= local < segment[1]:
                return segment
        return None

    def power(self, t: float) -> float:
        segment = self._segment_at(t - self._base(t))
        return 0.0 if segment is None else segment[2]

    def energy(self, t: float, dt: float) -> float:
        if dt < 0:
            raise ConfigurationError("dt must be non-negative")
        total = 0.0
        remaining = dt
        cur = t
        while remaining > 1e-12:
            base = self._base(cur)
            local = cur - base
            segment = self._segment_at(local)
            if segment is None:  # numeric edge: snap to next segment
                snapped = base + self.horizon_s
                if snapped != cur:
                    cur = snapped
                    continue
                # ``floor`` rounded one multiple low and ``cur`` already
                # sits on the next one (the snap would spin in place):
                # read it as that horizon's start.
                local = 0.0
                segment = self._table.segments[0]
            _, end, p = segment
            take = min(end - local, remaining)
            total += p * take
            # Past the first horizon ``cur`` carries a coarser ulp than
            # ``local``, so a sliver under half of it leaves ``cur + take ==
            # cur`` and the loop would spin in place: step one ulp instead.
            advanced = cur + take
            cur = advanced if advanced != cur else math.nextafter(cur, math.inf)
            remaining -= take
        return total

    def harvest_time(self, t: float, energy_j: float) -> Optional[float]:
        # Inside the first horizon copy only, off the segment energy table.
        if not 0.0 <= t < self._nominal_s:
            return None
        if energy_j <= 0.0:
            return 0.0
        table = self._table
        if t >= table.end and not table.done:
            table.extend(t)
        starts, _, powers = table.arrays
        i = int(starts.searchsorted(t, side="right")) - 1
        target = table.cum[i] + powers[i] * (t - starts[i]) + energy_j
        while target > table.cum[-1]:
            if table.done:
                return None  # wraps past the horizon
            table.extend(table.end)
        cum = table.cum
        starts, _, powers = table.arrays
        j = int(cum.searchsorted(target)) - 1
        return starts[j] + (target - cum[j]) / powers[j] - t

    def energy_batch(self, starts, dts) -> np.ndarray:
        """Exact vectorization of :meth:`energy`.

        A window starting at ``0 <= t < nominal horizon`` has ``base ==
        0.0`` and ``local == cur`` for as long as its walk stays below the
        nominal horizon (see :meth:`_base`), so :meth:`_walk` runs the
        scalar loop's operations elementwise, in the same order, over the
        segments each window spans.  A ``dt <= 1e-12`` never enters the
        loop: 0.0.  Windows starting below 0 or at or past the nominal
        horizon, and those whose walk reaches it, go through the scalar
        method.
        """
        return self.energy_batch_trusted(*_windows(starts, dts))

    def energy_batch_trusted(self, starts, dts_b) -> np.ndarray:
        """:meth:`energy_batch` minus input validation.  Callers guarantee
        1-D float64 arrays of one shape with non-negative ``dts_b``."""
        out = np.zeros(starts.size)
        scalar = dts_b > 1e-12
        early = np.flatnonzero(
            scalar & (starts >= 0.0) & (starts < self._nominal_s))
        if early.size:
            out[early], late = self._walk(starts[early], dts_b[early])
            scalar[early] = late
        rest = np.flatnonzero(scalar)
        if rest.size:
            out[rest] = PowerTrace.energy_batch(self, starts[rest], dts_b[rest])
        return out

    def _walk(self, cur: np.ndarray,
              remaining: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`energy`'s loop on windows ``[cur, cur + remaining)`` with
        ``0 <= cur < nominal horizon`` and ``remaining > 1e-12``:
        ``(energies, late)``.

        Each round is one pass of the scalar loop for every live window:
        one ``searchsorted`` (the bisect of :meth:`_segment_at`), then
        ``take``, ``total += p * take``, the advance and ``remaining -=
        take``, elementwise.  A window leaves when its ``remaining`` drops
        to ``1e-12``; one whose clock reaches the nominal horizon leaves
        with ``late`` set and no energy, for the scalar method.  Most
        windows leave after the first round; the rest span a few segments.
        """
        table = self._table
        nominal = self._nominal_s
        out = np.zeros(cur.size)
        late = np.zeros(cur.size, dtype=bool)
        live = np.arange(cur.size)
        total = np.zeros(cur.size)
        while True:
            last = float(cur.max())
            if last >= table.end and not table.done:
                table.extend(last)
            seg_starts, seg_ends, seg_powers = table.arrays
            i = seg_starts.searchsorted(cur, side="right") - 1
            take = np.minimum(seg_ends[i] - cur, remaining)
            total = total + seg_powers[i] * take
            advanced = cur + take
            stuck = advanced == cur
            if stuck.any():
                advanced[stuck] = np.nextafter(cur[stuck], math.inf)
            cur = advanced
            remaining = remaining - take
            going = remaining > 1e-12
            out[live[~going]] = total[~going]
            past = cur >= nominal
            late[live[past & going]] = True
            going &= ~past
            if not going.any():
                return out, late
            live = live[going]
            cur = cur[going]
            remaining = remaining[going]
            total = total[going]


class SolarTrace(PowerTrace):
    """Slow sinusoidal profile (indoor-light/solar style), clipped at zero."""

    def __init__(self, peak_power_w: float, period_s: float = 60.0) -> None:
        if peak_power_w < 0 or period_s <= 0:
            raise ConfigurationError("invalid solar trace parameters")
        self.peak_power_w = peak_power_w
        self.period_s = period_s

    def power(self, t: float) -> float:
        return max(0.0, self.peak_power_w * math.sin(2 * math.pi * t / self.period_s))

    def energy(self, t: float, dt: float) -> float:
        """Closed-form integral of the clipped sine.

        The positive half-wave of period ``k`` spans
        ``[k*T, k*T + T/2]``; over any sub-interval ``[a, b]`` of it the
        energy is ``P*T/(2*pi) * (cos(2*pi*a/T) - cos(2*pi*b/T))``.
        Summing the overlap per period (the
        :meth:`SquareWaveTrace.energy` pattern) is exact, where the
        generic numeric fallback both rounds and pays ~4096 ``power()``
        calls per window (the tests keep that path as a cross-check).
        """
        if dt < 0:
            raise ConfigurationError("dt must be non-negative")
        if dt == 0 or self.peak_power_w == 0.0:
            return 0.0
        period = self.period_s
        omega = 2 * math.pi / period
        amplitude = self.peak_power_w / omega
        start = t
        end = t + dt
        first_period = int(math.floor(start / period))
        last_period = int(math.floor(end / period))
        total = 0.0
        # Whole half-waves contribute 2*amplitude each; only the (at
        # most two) boundary periods need the cosine evaluation.
        if last_period - first_period > 1:
            total += 2.0 * amplitude * (last_period - first_period - 1)
        for k in (first_period, last_period) if last_period > first_period \
                else (first_period,):
            p0 = k * period
            lo = max(start, p0)
            hi = min(end, p0 + 0.5 * period)
            if hi > lo:
                total += amplitude * (
                    math.cos(omega * (lo - p0)) - math.cos(omega * (hi - p0))
                )
        return total

    def harvest_time(self, t: float, energy_j: float) -> Optional[float]:
        if self.peak_power_w == 0.0:
            return math.inf
        period = self.period_s
        omega = 2 * math.pi / period
        amplitude = self.peak_power_w / omega
        k = math.floor(t / period)
        u = t - k * period
        # Energy left in this period's half-wave: A * (cos(wu) - cos(pi)).
        c = math.cos(omega * u) if u < 0.5 * period else -1.0
        if energy_j <= amplitude * (c + 1.0):
            x = max(-1.0, c - energy_j / amplitude)
            return math.acos(x) / omega - u
        # Whole half-waves (2A each), then part of one.
        n, rest = divmod(energy_j - amplitude * (c + 1.0), 2.0 * amplitude)
        x = max(-1.0, 1.0 - rest / amplitude)
        return (k + 1 + n) * period + math.acos(x) / omega - t

    def energy_batch(self, starts, dts) -> np.ndarray:
        """Exact vectorization of :meth:`energy` for windows inside one
        period.

        Such a window takes the scalar method's single-period branch: its
        ``floor``, ``p0``, ``max``/``min`` and ``hi > lo`` test, then
        ``0.0 + amplitude * (cos_a - cos_b)``, each computed here
        elementwise with the same ops in the same order.  The cosines are
        ``math.cos`` per distinct argument — the scalar method's libm
        call, so no SIMD cosine can differ from it in the last bit.
        Windows crossing a period boundary, and ``dt == 0``, go through
        the scalar method.
        """
        return self.energy_batch_trusted(*_windows(starts, dts))

    def energy_batch_trusted(self, starts, dts_b) -> np.ndarray:
        """:meth:`energy_batch` minus input validation.  Callers guarantee
        1-D float64 arrays of one shape with non-negative ``dts_b``."""
        period = self.period_s
        end = starts + dts_b
        first = np.floor(starts / period)
        scalar = (first != np.floor(end / period)) | (dts_b == 0.0)
        p0 = first * period
        lo = np.maximum(starts, p0)
        hi = np.minimum(end, p0 + 0.5 * period)
        lit = np.flatnonzero(~scalar & (hi > lo))
        out = np.zeros(starts.size)
        if lit.size:
            omega = 2 * math.pi / period
            amplitude = self.peak_power_w / omega
            p0 = p0[lit]
            # Arguments interleaved (lo, hi) per window.  A recharge block's
            # window ends where the next one starts, so its ``hi`` argument
            # usually repeats as the next ``lo``: each run of equal
            # arguments takes one ``math.cos``.
            args = np.empty(2 * lit.size)
            args[0::2] = omega * (lo[lit] - p0)
            args[1::2] = omega * (hi[lit] - p0)
            new = np.empty(args.size, dtype=bool)
            new[0] = True
            np.not_equal(args[1:], args[:-1], out=new[1:])
            distinct = args[new]
            cos = np.fromiter(map(math.cos, distinct.tolist()),
                              dtype=np.float64, count=distinct.size)
            if distinct.size < args.size:
                cos = cos[np.cumsum(new) - 1]
            out[lit] = 0.0 + amplitude * (cos[0::2] - cos[1::2])
        rest = np.flatnonzero(scalar)
        if rest.size:
            out[rest] = PowerTrace.energy_batch(self, starts[rest], dts_b[rest])
        return out
