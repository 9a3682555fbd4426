"""Empirical power traces: recorded ``(time, power)`` arrays as supplies.

The analytic profiles in :mod:`repro.power.traces` cover the paper's
testbed and three idealized families.  Real intermittent-computing
evaluations replay *recorded* harvesting traces — logger CSVs, published
datasets, or pre-rendered stochastic processes — which this module turns
into first-class :class:`~repro.power.traces.PowerTrace` supplies.

An :class:`EmpiricalTrace` is a piecewise-constant (sample-and-hold)
power signal over ``n`` segments: ``times`` holds the ``n + 1`` segment
edges, ``powers`` the per-segment watts.  A prefix-sum table over
``powers * diff(times)`` makes ``energy(t, dt)`` an *exact* O(log n)
lookup — the cumulative energy ``F(t)`` is evaluated at both window ends
and subtracted, so windowed energies are additive by construction
(``energy(t, a) + energy(t + a, b)`` telescopes to ``energy(t, a + b)``
up to float rounding) and never drift with window count the way numeric
integration does.

Beyond the recorded horizon the trace follows its *end policy*:

* ``"loop"`` — wrap around periodically (the default; deployments replay
  a finite recording forever);
* ``"hold"`` — continue at the final sample's power;
* ``"dead"`` — zero power after the end (supply unplugged).

Importers (:meth:`EmpiricalTrace.from_csv`, :meth:`~EmpiricalTrace.from_npz`)
validate units and monotonicity; :meth:`EmpiricalTrace.stats` summarizes
mean/peak power, outage fraction, and the burst-length distribution.
Composable transforms (:meth:`~EmpiricalTrace.scale_to_mean_power`,
:meth:`~EmpiricalTrace.time_dilate`, :meth:`~EmpiricalTrace.slice`,
:meth:`~EmpiricalTrace.concat`, :meth:`~EmpiricalTrace.with_outages`)
each return a new trace, so corpus entries can be reshaped without
touching the originals.

``energy`` is a pure function of ``(t, dt)`` — the internal segment hint
only accelerates the lookup and never changes a returned value — which
is what lets the fast engine (:mod:`repro.sim.fastsim`) admit
``EmpiricalTrace`` to its exact-replay whitelist.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.power.traces import PowerTrace

#: End-of-trace policies understood by :class:`EmpiricalTrace`.
END_POLICIES = ("loop", "hold", "dead")

#: Unit sanity ceiling: harvesting frontends in this problem domain top
#: out around tens of milliwatts, so a peak above this is almost surely
#: a mW-vs-W (or uW-vs-W) column mix-up in an imported file.
DEFAULT_MAX_POWER_W = 10.0


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of one (rendered) trace.

    ``outage_fraction`` is the fraction of the recorded duration spent at
    or below ``outage_threshold_w``; ``burst_s`` holds the lengths of the
    maximal above-threshold runs (the distribution deployments care
    about: many short scraps vs few long windows).
    """

    duration_s: float
    n_segments: int
    mean_power_w: float
    peak_power_w: float
    outage_threshold_w: float
    outage_fraction: float
    burst_s: Tuple[float, ...]

    @property
    def n_bursts(self) -> int:
        return len(self.burst_s)

    @property
    def mean_burst_s(self) -> float:
        return float(np.mean(self.burst_s)) if self.burst_s else 0.0

    @property
    def max_burst_s(self) -> float:
        return max(self.burst_s) if self.burst_s else 0.0

    def summary(self) -> str:
        return (
            f"{self.duration_s:g} s, {self.n_segments} segments, "
            f"mean {self.mean_power_w * 1e3:.3f} mW, "
            f"peak {self.peak_power_w * 1e3:.3f} mW, "
            f"outage {self.outage_fraction * 100:.1f}%, "
            f"{self.n_bursts} bursts (mean {self.mean_burst_s * 1e3:.0f} ms, "
            f"max {self.max_burst_s * 1e3:.0f} ms)"
        )


class EmpiricalTrace(PowerTrace):
    """Piecewise-constant power trace backed by numpy sample arrays.

    ``times`` are the ``n + 1`` segment edges (seconds, strictly
    increasing; shifted so the trace starts at 0), ``powers`` the ``n``
    per-segment powers (watts, non-negative).  ``end`` picks the
    end-of-trace policy (see module docstring).  ``max_power_w`` is the
    unit-validation ceiling (pass ``None`` to disable, e.g. for bench
    supplies that are deliberately out of range).
    """

    def __init__(
        self,
        times: Sequence[float],
        powers: Sequence[float],
        *,
        end: str = "loop",
        max_power_w: Optional[float] = DEFAULT_MAX_POWER_W,
    ) -> None:
        if end not in END_POLICIES:
            raise ConfigurationError(
                f"unknown end policy {end!r} (expected one of {END_POLICIES})"
            )
        times = np.asarray(times, dtype=np.float64)
        powers = np.asarray(powers, dtype=np.float64)
        if times.ndim != 1 or powers.ndim != 1:
            raise ConfigurationError("times and powers must be 1-D arrays")
        if len(powers) < 1 or len(times) != len(powers) + 1:
            raise ConfigurationError(
                f"need n >= 1 segments: len(times) == len(powers) + 1, got "
                f"{len(times)} times for {len(powers)} powers"
            )
        if not (np.isfinite(times).all() and np.isfinite(powers).all()):
            raise ConfigurationError("times and powers must be finite")
        if np.any(np.diff(times) <= 0):
            raise ConfigurationError("times must be strictly increasing")
        if np.any(powers < 0):
            raise ConfigurationError("powers must be non-negative")
        if max_power_w is not None and float(powers.max()) > max_power_w:
            raise ConfigurationError(
                f"peak power {powers.max():g} W exceeds {max_power_w:g} W — "
                "check the input units (pass max_power_w=None to override)"
            )
        times = times - times[0]  # traces start at t = 0
        self.times = times
        self.powers = powers
        self.end = end
        # Prefix-sum cumulative-energy table: _cum[i] is the energy of
        # segments [0, i), so F(t) inside segment i is
        # _cum[i] + powers[i] * (t - times[i]) — an exact integral of the
        # piecewise-constant signal, found by one binary search.
        seg_j = powers * np.diff(times)
        cum = np.empty(len(times), dtype=np.float64)
        cum[0] = 0.0
        np.cumsum(seg_j, out=cum[1:])
        self._cum = cum
        # Python-list mirrors: ``bisect`` + float arithmetic on lists is
        # several times faster than numpy scalar indexing, and energy()
        # sits on the simulator's per-draw hot path.
        self._edges_l: List[float] = times.tolist()
        self._cum_l: List[float] = cum.tolist()
        self._powers_l: List[float] = powers.tolist()
        self._n = len(powers)
        self._duration = float(times[-1])
        self._cycle_j = float(cum[-1])
        # Hot-path cache: the last-hit segment's index, edges and power,
        # kept in sync by _locate().  A lookup accelerator only — every
        # branch below returns a value that depends solely on (t, dt),
        # never on which segment was cached (the fastsim purity contract).
        self._hint = 0
        self._lo = self._edges_l[0]
        self._hi = self._edges_l[1]
        self._pw = self._powers_l[0]

    # -- PowerTrace interface -------------------------------------------------

    @property
    def duration_s(self) -> float:
        """Length of the recorded window (one loop period)."""
        return self._duration

    @property
    def mean_power_w(self) -> float:
        return self._cycle_j / self._duration

    @property
    def peak_power_w(self) -> float:
        return float(self.powers.max())

    def power(self, t: float) -> float:
        if t < 0.0:
            raise ConfigurationError("time must be non-negative")
        if t >= self._duration:
            if self.end == "loop":
                t = math.fmod(t, self._duration)
            elif self.end == "hold":
                return self._powers_l[-1]
            else:  # dead
                return 0.0
        return self._powers_l[self._locate(t)]

    def energy(self, t: float, dt: float) -> float:
        """Exact energy over ``[t, t + dt)`` from the prefix-sum table.

        The common simulator case — a window inside one segment — is a
        single multiply off the cached segment (this method sits on the
        per-draw hot path; ``benchmarks/bench_trace_sampling.py`` holds
        it to ~``ConstantTrace`` cost).  If the guard passes, the cached
        segment provably contains ``[t, t + dt]``, so the same value
        would be computed after any relocation: results stay a pure
        function of ``(t, dt)``.
        """
        if self._lo <= t and 0.0 < dt and t + dt <= self._hi:
            return self._pw * dt
        return self._energy_slow(t, dt)

    def harvest_time(self, t: float, energy_j: float) -> Optional[float]:
        # F(t) + energy_j, inverted on the prefix-sum table.
        if t < 0.0:
            return None
        if energy_j <= 0.0:
            return 0.0
        target = self._cum_at(t) + energy_j
        cycle = self._cycle_j
        if target <= cycle:
            return self._time_at(target) - t
        if self.end == "loop" and cycle > 0.0:
            k = math.floor(target / cycle)
            rest = target - k * cycle
            x = self._time_at(rest) if rest > 0.0 else 0.0
            return k * self._duration + x - t
        last = self._powers_l[-1]
        if self.end == "hold" and last > 0.0:
            return self._duration + (target - cycle) / last - t
        return math.inf

    def _time_at(self, energy_j: float) -> float:
        """Where ``F`` reaches ``0 < energy_j <= _cycle_j`` (one cycle's energy)."""
        i = bisect_left(self._cum_l, energy_j) - 1
        return self._edges_l[i] + (energy_j - self._cum_l[i]) / self._powers_l[i]

    def energy_batch(self, starts, dts) -> np.ndarray:
        """Exact vectorization of :meth:`energy` over the prefix-sum table.

        Replicates the branch structure of :meth:`_energy_slow` /
        :meth:`_cum_at` / :meth:`_cum_in` elementwise — every arithmetic
        expression keeps the scalar association order, ``searchsorted``
        plus clip *is* the clamped ``bisect_right`` of :meth:`_locate`,
        and branch selection via masks picks bit-identical values (the
        cached-segment fast path of :meth:`energy` returns the same
        ``powers[i] * dt`` as the slow path's same-segment branch, per
        the purity contract above, so batching never sees the hint).
        """
        t = np.asarray(starts, dtype=np.float64)
        dt = np.broadcast_to(np.asarray(dts, dtype=np.float64), t.shape)
        if np.any(dt < 0.0):
            raise ConfigurationError("dt must be non-negative")
        if np.any(t < 0.0):
            raise ConfigurationError("time must be non-negative")
        if t.size == 0:
            return np.zeros(0, dtype=np.float64)
        times, powers, cum, n = self.times, self.powers, self._cum, self._n
        d = self._duration

        def locate_v(x):
            return np.clip(np.searchsorted(times, x, side="right") - 1,
                           0, n - 1)

        def cum_in_v(x):
            i = locate_v(x)
            return cum[i] + powers[i] * (x - times[i])

        def cum_at_v(x):
            if self.end == "loop":
                k = np.floor(x / d)
                u = x - k * d
                adj = u >= d  # fp guard: x/d rounded down past a boundary
                u = np.where(adj, 0.0, u)
                k = np.where(adj, k + 1.0, k)
                beyond = k * self._cycle_j + cum_in_v(u)
            elif self.end == "hold":
                beyond = self._cycle_j + powers[-1] * (x - d)
            else:  # dead
                beyond = np.full(x.shape, self._cycle_j)
            return np.where(x >= d, beyond, cum_in_v(x))

        end = t + dt
        i = locate_v(t)
        same_seg = end <= times[i + 1]
        start_f = cum[i] + powers[i] * (t - times[i])
        within = np.where(same_seg, powers[i] * dt,
                          np.maximum(cum_in_v(end) - start_f, 0.0))
        out = np.where(end <= d, within,
                       np.maximum(cum_at_v(end) - cum_at_v(t), 0.0))
        return np.where(dt == 0.0, 0.0, out)

    # -- lookup internals -----------------------------------------------------

    def _energy_slow(self, t: float, dt: float) -> float:
        if dt < 0.0:
            raise ConfigurationError("dt must be non-negative")
        if t < 0.0:
            raise ConfigurationError("time must be non-negative")
        if dt == 0.0:
            return 0.0
        end = t + dt
        if end <= self._duration:
            i = self._locate(t)
            if end <= self._edges_l[i + 1]:
                # Same segment: identical to the fast path above (the
                # two paths must agree bit for bit — purity contract).
                return self._powers_l[i] * dt
            return max(self._cum_in(end) - (
                self._cum_l[i] + self._powers_l[i] * (t - self._edges_l[i])
            ), 0.0)
        # Far from the origin the two prefix sums round apart: a window
        # of zero power can come out a few ulps below zero.  Harvested
        # energy is never negative, so clamp (the reference capacitor
        # would reject the negative charge the fast replay adds).
        return max(self._cum_at(end) - self._cum_at(t), 0.0)

    def _locate(self, t: float) -> int:
        """Segment containing local time ``t`` (0 <= t < duration).

        The hint makes the simulator's monotone access pattern O(1); the
        returned index depends only on ``t``, so results never depend on
        call history.
        """
        edges = self._edges_l
        i = self._hint
        if not edges[i] <= t < edges[i + 1]:
            i = bisect_right(edges, t) - 1
            if i >= self._n:
                i = self._n - 1
            elif i < 0:
                i = 0
            self._hint = i
            self._lo = edges[i]
            self._hi = edges[i + 1]
            self._pw = self._powers_l[i]
        return i

    def _cum_at(self, t: float) -> float:
        """Cumulative energy F(t) over ``[0, t)`` under the end policy."""
        d = self._duration
        if t >= d:
            if self.end == "loop":
                k = math.floor(t / d)
                u = t - k * d
                if u >= d:  # fp guard: t/d rounded down past a boundary
                    u = 0.0
                    k += 1.0
                return k * self._cycle_j + self._cum_in(u)
            if self.end == "hold":
                return self._cycle_j + self._powers_l[-1] * (t - d)
            return self._cycle_j  # dead
        return self._cum_in(t)

    def _cum_in(self, t: float) -> float:
        i = self._locate(t)
        return self._cum_l[i] + self._powers_l[i] * (t - self._edges_l[i])

    # -- statistics -----------------------------------------------------------

    def stats(self, outage_threshold_w: float = 0.0) -> TraceStats:
        """Summary statistics of the recorded window (one cycle)."""
        if outage_threshold_w < 0:
            raise ConfigurationError("outage threshold must be non-negative")
        durations = np.diff(self.times)
        live = self.powers > outage_threshold_w
        outage_s = float(durations[~live].sum())
        # Burst lengths: merge consecutive above-threshold segments.
        bursts: List[float] = []
        run = 0.0
        for alive, dur in zip(live, durations):
            if alive:
                run += float(dur)
            elif run > 0.0:
                bursts.append(run)
                run = 0.0
        if run > 0.0:
            bursts.append(run)
        return TraceStats(
            duration_s=self._duration,
            n_segments=self._n,
            mean_power_w=self.mean_power_w,
            peak_power_w=self.peak_power_w,
            outage_threshold_w=outage_threshold_w,
            outage_fraction=outage_s / self._duration,
            burst_s=tuple(bursts),
        )

    # -- transforms (each returns a new trace) --------------------------------

    def _with(self, times, powers) -> "EmpiricalTrace":
        return EmpiricalTrace(times, powers, end=self.end, max_power_w=None)

    def scaled(self, factor: float) -> "EmpiricalTrace":
        """Multiply every power sample by ``factor``."""
        if factor < 0:
            raise ConfigurationError("scale factor must be non-negative")
        return self._with(self.times, self.powers * factor)

    def scale_to_mean_power(self, target_w: float) -> "EmpiricalTrace":
        """Rescale so the recorded window's mean power is ``target_w``."""
        if target_w < 0:
            raise ConfigurationError("target mean power must be non-negative")
        mean = self.mean_power_w
        if mean <= 0.0:
            raise ConfigurationError(
                "cannot rescale an all-zero trace to a positive mean"
            )
        return self.scaled(target_w / mean)

    def time_dilate(self, factor: float) -> "EmpiricalTrace":
        """Stretch (>1) or compress (<1) time; powers are unchanged, so
        per-window energy scales by ``factor``."""
        if factor <= 0:
            raise ConfigurationError("dilation factor must be positive")
        return self._with(self.times * factor, self.powers)

    def slice(self, t0: float, t1: float) -> "EmpiricalTrace":
        """The sub-trace over ``[t0, t1]`` of the recorded window."""
        if not 0.0 <= t0 < t1 <= self._duration:
            raise ConfigurationError(
                f"need 0 <= t0 < t1 <= {self._duration:g}, got "
                f"({t0}, {t1})"
            )
        i0 = self._locate(t0)
        # Last included segment: the one with times[i1] < t1 <= times[i1+1]
        # (bisect_left avoids duplicating an edge when t1 lands on one).
        i1 = bisect_left(self._edges_l, t1) - 1
        times = np.concatenate(
            ([t0], self.times[i0 + 1: i1 + 1], [t1])
        )
        powers = self.powers[i0: i1 + 1]
        return self._with(times, powers)

    def concat(self, other: "EmpiricalTrace") -> "EmpiricalTrace":
        """This trace followed by ``other`` (keeps this end policy)."""
        times = np.concatenate(
            (self.times, other.times[1:] - other.times[0] + self._duration)
        )
        powers = np.concatenate((self.powers, other.powers))
        return self._with(times, powers)

    def with_outages(
        self,
        *,
        rate_hz: float,
        mean_outage_s: float,
        seed: int = 0,
    ) -> "EmpiricalTrace":
        """Zero the supply over seeded random windows (Poisson arrivals
        at ``rate_hz``, exponential durations of mean ``mean_outage_s``)
        — connector glitches, shadowing, reader absence."""
        if rate_hz <= 0 or mean_outage_s <= 0:
            raise ConfigurationError("outage rate and duration must be positive")
        rng = np.random.default_rng(seed)
        cuts: List[Tuple[float, float]] = []
        t = float(rng.exponential(1.0 / rate_hz))
        while t < self._duration:
            dur = max(float(rng.exponential(mean_outage_s)), 1e-6)
            cuts.append((t, min(t + dur, self._duration)))
            t += dur + float(rng.exponential(1.0 / rate_hz))
        if not cuts:
            return self._with(self.times, self.powers)
        # Split segments at outage boundaries, then zero covered spans.
        bounds = [b for cut in cuts for b in cut]
        edges = np.unique(np.concatenate((self.times, bounds)))
        left = edges[:-1]
        idx = np.minimum(
            np.searchsorted(self.times, left, side="right") - 1, self._n - 1
        )
        powers = self.powers[idx].copy()
        for start, stop in cuts:
            powers[(left >= start) & (left < stop)] = 0.0
        return self._with(edges, powers)

    # -- importers / exporters ------------------------------------------------

    @classmethod
    def from_csv(cls, path) -> "EmpiricalTrace":
        """Load a two-column ``time_s,power_w`` CSV.

        ``#``-prefixed lines are comments (``# end=<policy>`` and
        ``# max_power_w=<W|none>`` persist those settings), a non-numeric
        first row is treated as a header.
        The ``m`` data rows define ``m - 1`` sample-and-hold segments:
        the last row closes the final interval and its power value is
        ignored — exactly what :meth:`to_csv` writes, so export/import
        round-trips are lossless (including traces built with
        ``max_power_w=None``).  Files without a ``max_power_w``
        directive get the default unit-validation ceiling.
        """
        file_end = None
        file_max: Optional[float] = DEFAULT_MAX_POWER_W
        header_skipped = False
        rows: List[Tuple[float, float]] = []
        with open(path, "r", newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh), 1):
                if not row:
                    continue
                first = row[0].strip()
                if first.startswith("#"):
                    directive = " ".join(cell.strip() for cell in row).lstrip("#").strip()
                    try:
                        if directive.startswith("end="):
                            file_end = directive[4:].strip()
                            if file_end not in END_POLICIES:
                                raise ValueError(file_end)
                        elif directive.startswith("max_power_w="):
                            value = directive[len("max_power_w="):].strip()
                            file_max = None if value == "none" else float(value)
                    except ValueError:
                        raise ConfigurationError(
                            f"{path}: line {lineno}: bad directive "
                            f"{directive!r}"
                        )
                    continue
                try:
                    t, p = float(row[0]), float(row[1])
                except (ValueError, IndexError):
                    # Exactly one non-numeric row before any data is a
                    # column header — and only if none of its cells
                    # parses as a float (a truncated or corrupt first
                    # sample is not a header).  Anything else must
                    # raise, never be silently dropped.
                    if (not rows and not header_skipped
                            and not any(_is_float(cell) for cell in row)):
                        header_skipped = True
                        continue
                    raise ConfigurationError(
                        f"{path}: line {lineno}: expected 'time_s,power_w', "
                        f"got {row!r}"
                    )
                rows.append((t, p))
        if len(rows) < 2:
            raise ConfigurationError(f"{path}: need at least 2 data rows")
        times = np.array([r[0] for r in rows])
        powers = np.array([r[1] for r in rows[:-1]])
        return cls(times, powers, end=file_end or "loop", max_power_w=file_max)

    def to_csv(self, path) -> None:
        """Write ``time_s,power_w`` rows (17 significant digits, so the
        float64 samples — and therefore every ``energy()`` value —
        round-trip bit-identically through :meth:`from_csv`).  The
        already-validated samples carry ``# max_power_w=none`` so
        re-import never re-imposes the foreign-file unit ceiling."""
        with open(path, "w", newline="") as fh:
            fh.write("# repro power trace\n")
            fh.write(f"# end={self.end}\n")
            fh.write("# max_power_w=none\n")
            fh.write("time_s,power_w\n")
            for i in range(self._n):
                fh.write(f"{self.times[i]:.17g},{self.powers[i]:.17g}\n")
            # Final edge; the power value closes the file but is ignored
            # on load (documented in from_csv).
            fh.write(f"{self.times[-1]:.17g},{self.powers[-1]:.17g}\n")

    @classmethod
    def from_npz(cls, path) -> "EmpiricalTrace":
        """Load ``times``/``powers``/``end`` arrays saved by :meth:`to_npz`.

        Like :meth:`from_csv`, a persisted ``max_power_w`` (NaN = no
        ceiling) is honored, so out-of-range traces round-trip too.
        """
        with np.load(path, allow_pickle=False) as data:
            for key in ("times", "powers"):
                if key not in data:
                    raise ConfigurationError(f"{path}: missing array {key!r}")
            end = str(data["end"]) if "end" in data else "loop"
            max_power_w = DEFAULT_MAX_POWER_W
            if "max_power_w" in data:
                ceiling = float(data["max_power_w"])
                max_power_w = None if math.isnan(ceiling) else ceiling
            return cls(data["times"], data["powers"], end=end,
                       max_power_w=max_power_w)

    def to_npz(self, path) -> None:
        """Save as a compressed ``.npz`` (bit-exact round trip; the
        samples are already validated, so the unit ceiling is persisted
        as disabled — NaN)."""
        np.savez_compressed(
            path, times=self.times, powers=self.powers,
            end=np.asarray(self.end), max_power_w=np.float64("nan"),
        )

    def __repr__(self) -> str:
        return (
            f"EmpiricalTrace({self._n} segments, {self._duration:g} s, "
            f"mean {self.mean_power_w * 1e3:.3f} mW, end={self.end!r})"
        )
