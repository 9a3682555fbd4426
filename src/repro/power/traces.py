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
from bisect import bisect_right
from typing import List, Optional, Tuple

import numpy as np

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


class StochasticRFTrace(PowerTrace):
    """Bursty ambient-RF-like harvesting: exponential on/off segments.

    Segments are drawn on first use, in chunks that double in size, from
    one sequential ``default_rng(seed)`` stream: the same draws in the
    same order as generating the whole horizon up front, so each segment
    is the same float whenever it is generated, and a run that reads only
    the first minute of a 600 s horizon never draws the rest.  A trace is
    not shared between threads (the chunks extend it in place).
    """

    #: Segments in the first generation chunk; each later chunk doubles.
    FIRST_CHUNK = 256

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
        self._mean_on_s = mean_on_s
        self._mean_off_s = mean_off_s
        self._nominal_s = horizon_s
        # Generation state; ``_rng`` is None once the horizon is covered.
        self._rng: Optional[np.random.Generator] = np.random.default_rng(seed)
        self._on = True
        self._end = 0.0  # where the next segment starts
        self._chunk = self.FIRST_CHUNK
        # (start, end, power) segments tiling [0, _end).  Segment i ends at
        # the very float segment i + 1 starts at, so a bisect over their
        # starts picks the one segment a first-match scan would.
        self._segments: List[Tuple[float, float, float]] = []
        self._starts: List[float] = []
        # Array mirror of ``_segments`` for ``energy_batch``, rebuilt when
        # a chunk lands (geometric chunks keep that amortized O(n)).
        self._table: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def _generate(self, local: float) -> None:
        """Draw segments until one ends past ``local`` or the nominal
        horizon is covered."""
        rng = self._rng
        on_s = self._mean_on_s
        off_s = self._mean_off_s
        mean_power_w = self.mean_power_w
        nominal = self._nominal_s
        segments = self._segments
        n0 = len(segments)
        t = self._end
        on = self._on
        while rng is not None and t <= local:
            for _ in range(self._chunk):
                dur = float(rng.exponential(on_s if on else off_s))
                dur = max(dur, 1e-4)
                power = (
                    float(rng.uniform(0.5, 1.5)) * mean_power_w * (on_s + off_s)
                    / on_s
                    if on
                    else 0.0
                )
                segments.append((t, t + dur, power))
                t += dur
                on = not on
                if t >= nominal:
                    rng = self._rng = None
                    break
            self._chunk *= 2
        self._starts.extend(start for start, _, _ in segments[n0:])
        self._end = t
        self._on = on

    @property
    def horizon_s(self) -> float:
        """Length of the trace: the first segment end at or past the
        requested horizon.  Reading it draws every segment."""
        if self._rng is not None:
            self._generate(math.inf)
        return self._end

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
        if local >= self._end and self._rng is not None:
            self._generate(local)
        i = bisect_right(self._starts, local) - 1
        if i >= 0:
            segment = self._segments[i]
            if segment[0] <= local < segment[1]:
                return segment
        return None

    def _arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, ends, powers)`` of the segments drawn so far."""
        table = self._table
        if table is None or table[0].size != len(self._segments):
            rows = np.array(self._segments, dtype=np.float64)
            table = self._table = (
                rows[:, 0].copy(), rows[:, 1].copy(), rows[:, 2].copy())
        return table

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
                segment = self._segments[0]
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

    def energy_batch(self, starts, dts) -> np.ndarray:
        """Exact vectorization of :meth:`energy` for windows inside one
        segment.

        A window starting at ``0 <= t < nominal horizon`` has ``base ==
        0.0`` and ``local == t`` (see :meth:`_base`).  When it also ends
        inside the segment holding ``t`` (``end - t >= dt``) the scalar
        loop runs once with ``take == dt``, so its value is ``0.0 + p *
        dt``, computed here elementwise after one ``searchsorted`` — the
        bisect of :meth:`_segment_at`.  A ``dt <= 1e-12`` never enters the
        loop: 0.0.  Every other window (one crossing a segment end, or
        starting at or past the nominal horizon, or below 0) goes through
        the scalar method.
        """
        starts, dts_b = _windows(starts, dts)
        out = np.zeros(starts.size)
        scalar = dts_b > 1e-12
        early = np.flatnonzero(
            scalar & (starts >= 0.0) & (starts < self._nominal_s))
        if early.size:
            t = starts[early]
            self._generate(float(t.max()))
            seg_starts, seg_ends, seg_powers = self._arrays()
            i = np.searchsorted(seg_starts, t, side="right") - 1
            d = dts_b[early]
            inside = seg_ends[i] - t >= d
            done = early[inside]
            out[done] = 0.0 + seg_powers[i[inside]] * d[inside]
            scalar[done] = False
        rest = np.flatnonzero(scalar)
        if rest.size:
            out[rest] = PowerTrace.energy_batch(self, starts[rest], dts_b[rest])
        return out


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

    def energy_batch(self, starts, dts) -> np.ndarray:
        """Exact vectorization of :meth:`energy` for windows inside one
        period.

        Such a window takes the scalar method's single-period branch: its
        ``floor``, ``p0``, ``max``/``min`` and ``hi > lo`` test, then
        ``0.0 + amplitude * (cos_a - cos_b)``, each computed here
        elementwise with the same ops in the same order.  The cosines are
        ``math.cos`` per element — the scalar method's libm call, so no
        SIMD cosine can differ from it in the last bit.  Windows crossing a
        period boundary, and ``dt == 0``, go through the scalar method.
        """
        starts, dts_b = _windows(starts, dts)
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
            args = np.concatenate(
                (omega * (lo[lit] - p0), omega * (hi[lit] - p0))).tolist()
            cos = np.fromiter(map(math.cos, args), dtype=np.float64,
                              count=len(args))
            out[lit] = 0.0 + amplitude * (cos[:lit.size] - cos[lit.size:])
        rest = np.flatnonzero(scalar)
        if rest.size:
            out[rest] = PowerTrace.energy_batch(self, starts[rest], dts_b[rest])
        return out
