"""Small measurement helpers: robust summaries, output checks, attribution."""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Optional, Sequence

#: A reported percentile needs at least this many samples beyond it.
TAIL_SUPPORT = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, refusing one with too thin a tail.

    At least :data:`TAIL_SUPPORT` samples must lie beyond it: p90 needs
    100 samples, p99 needs 1000.
    """
    beyond = len(samples) * (1 - q / 100)
    if beyond < TAIL_SUPPORT - 1e-9:
        raise ValueError(
            f"p{q:g} of {len(samples)} samples has only {beyond:.1f} "
            f"beyond it (need {TAIL_SUPPORT})")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def digest(payload) -> str:
    """BLAKE2b of a table's ``to_json`` text (or raw bytes)."""
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def unattributed(wall_s: float, covered_s: float, lanes: int = 1) -> float:
    """Per-lane wall time that no layer span explains, never negative.

    ``covered_s`` sums the top-level span time of ``lanes`` concurrent
    lanes (client threads); clock skew between the wall clock and the
    spans can make the difference dip below zero, which means "none".
    """
    return max(0.0, wall_s - covered_s / lanes)


class Checks:
    """Operations attempted and failed: ``error_rate = failed / attempted``.

    Failed scenarios, non-zero exits, failed jobs and digest mismatches
    are each one failed operation.  ``known`` seeds the digest ledger
    with earlier runs of the same seed, so a table that changes between
    runs is caught too.
    """

    def __init__(self, known: Optional[Dict[str, str]] = None) -> None:
        self.attempted = 0
        self.failed = 0
        self.digests: Dict[str, str] = dict(known or {})
        self.problems: list = []

    def op(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def ops(self, attempted: int, failed: int, what: str = "") -> None:
        for i in range(attempted):
            self.op(i >= failed, what)

    def table(self, key: str, payload) -> str:
        """Record a table's digest; a different earlier one is a failure."""
        value = digest(payload)
        first = self.digests.setdefault(key, value)
        self.op(first == value, f"digest of {key} changed")
        return value

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
