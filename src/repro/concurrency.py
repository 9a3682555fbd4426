"""Thread-safety primitives for the process-local caches.

``repro.serve`` runs concurrent studies from a pool of threads over
caches that were built single-threaded: the kernel plan caches, the
spectra cache, the fastsim program cache, the fleet model cache and
its memos, the RF segment tables and the durable result store.  This
module holds the three primitives they are hardened with:

:class:`ForkSafeLock`
    A ``threading.Lock`` (or ``RLock``) that is *re-created* in forked
    children.  Plain locks inherited through ``fork`` keep whatever
    state they had at the instant of the fork — if any other thread
    held the lock, the child's copy is locked forever and the first
    cache access in a fleet worker deadlocks.  Every lock guarding a
    module-level cache therefore goes through this class; a registered
    ``os.register_at_fork`` hook swaps in fresh unlocked locks on the
    child side.

:class:`Memo`
    The one LRU map behind the program cache, the model cache, the
    trajectory and logits memos, the RF segment registry and the
    service's finished-table cache.  One :class:`ForkSafeLock` guards
    its order, its bound and its ``hits``/``misses``, so the counts are
    exact: every lookup counts one or the other.  :meth:`Memo.get_or_build`
    builds a missing value once per key, outside that lock, while racing
    callers for the key wait; see its docstring for the fork rule.

:class:`KeyedLocks`
    A lazily populated ``key -> Lock`` table for locks that must stay
    the same object for as long as their owner lives: the fleet
    :class:`~repro.fleet.cache.ModelCache` hands out a per-``model_key``
    *execution* lock so that two service threads running scenarios
    that share a cached model (whose overflow monitor is per-scenario
    scratch) serialize, while scenarios on distinct models run fully
    concurrently.

Three caches keep their own locking.  The kernel plan caches are
double-checked: a hit is one lock-free ``dict.get`` (atomic under the
GIL, and the dicts only ever hold finished plans), a miss re-checks and
builds under the cache lock; the BCM one is keyed on ``id(layer)`` with
weakref eviction.  The spectra cache evicts on a byte budget and
transforms inside its lock.

A cache value is built by a thread into its own locals and published
whole under a lock, so a forked child, which keeps only the forking
thread, never sees a half-built entry.  The RF segment tables of
:mod:`repro.power.traces` grow in place instead, so the child resets
any table a fork caught mid-draw.  Obs counters mirror the exact counts
and are incremented outside the lock.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from typing import Callable, Dict, Hashable, List, Optional

from repro.obs import metrics as _obs

__all__ = ["ForkSafeLock", "KeyedLocks", "Memo"]

#: Live objects with a ``_rebuild`` hook, run on the child side of a fork.
_REGISTRY: List["weakref.ref"] = []
_REGISTRY_LOCK = threading.Lock()


def _after_fork_in_child() -> None:  # pragma: no cover - exercised via fleets
    # The child is single-threaded at this point (POSIX fork keeps only
    # the calling thread), so rebuilding every registered lock is safe —
    # nobody in this process can be holding one.
    for ref in list(_REGISTRY):
        obj = ref()
        if obj is not None:
            obj._rebuild()


if hasattr(os, "register_at_fork"):  # pragma: no branch - CPython >= 3.7
    os.register_at_fork(after_in_child=_after_fork_in_child)


def _register(obj: object) -> None:
    with _REGISTRY_LOCK:
        _REGISTRY.append(weakref.ref(obj))
        # Compact dead references so long-lived processes that churn
        # caches do not grow the registry without bound.
        if len(_REGISTRY) % 64 == 0:
            _REGISTRY[:] = [r for r in _REGISTRY if r() is not None]


class ForkSafeLock:
    """A context-manager lock that forked children get fresh and unlocked."""

    __slots__ = ("_rlock", "_lock", "__weakref__")

    def __init__(self, *, rlock: bool = False) -> None:
        self._rlock = rlock
        self._rebuild()
        _register(self)

    def _rebuild(self) -> None:
        self._lock = threading.RLock() if self._rlock else threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        return self._lock.acquire(blocking, timeout)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> "ForkSafeLock":
        self._lock.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self._lock.release()


class Memo:
    """A thread-safe, fork-safe LRU of at most ``size`` entries.

    ``size=None`` leaves it unbounded.  Values are never ``None``
    (:meth:`get` returns ``None`` for a miss).  With ``metric`` set,
    every lookup also counts ``<metric>.hits`` or ``<metric>.misses``
    in :mod:`repro.obs`.

    Two ways in: :meth:`get` and :meth:`put`, for values a duplicate
    compute is harmless for (two racing misses both compute the same
    value and the second put wins), and :meth:`get_or_build`, which
    builds once per key.
    """

    def __init__(self, size: Optional[int], metric: Optional[str] = None) -> None:
        self.size = size
        self.hits = 0
        self.misses = 0
        self._metric = metric
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        # Guards the entries, their order and the counts; builds run
        # outside it.
        self._lock = ForkSafeLock()
        #: key -> the event its running build sets when it ends.
        self._building: Dict[Hashable, threading.Event] = {}
        _register(self)

    def _rebuild(self) -> None:  # pragma: no cover - runs after fork
        # A build in flight at the fork ran on a thread the child does
        # not have, so nothing would set its event.  Stored entries stay:
        # they are whole (see the module docstring).
        self._building = {}

    def __len__(self) -> int:
        return len(self._entries)

    def _lookup(self, key: Hashable):
        """The entry for ``key``, counted; the caller holds the lock."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self._entries.move_to_end(key)
            self.hits += 1
        return value

    def _store(self, key: Hashable, value: object) -> None:
        """Insert as the newest entry and evict; the caller holds the lock."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        if self.size is not None:
            while len(self._entries) > self.size:
                self._entries.popitem(last=False)

    def _count(self, hit: bool) -> None:
        if self._metric is not None and _obs.ENABLED:
            _obs.count(self._metric + (".hits" if hit else ".misses"))

    def get(self, key: Hashable):
        """The value stored under ``key`` (now the newest), or ``None``."""
        with self._lock:
            value = self._lookup(key)
        self._count(value is not None)
        return value

    def put(self, key: Hashable, value: object) -> None:
        """Store ``value`` under ``key`` as the newest entry."""
        with self._lock:
            self._store(key, value)

    def get_or_build(self, key: Hashable, build: Callable[[], object]):
        """The value under ``key``, calling ``build()`` on a miss.

        One caller builds a missing key; callers that race it for the
        same key wait for that build and then take its value as a hit
        (or, if it raised, try in turn).  The build runs outside the
        lock, so hits and other keys' builds never wait behind it, and
        the key's wait entry lives only while its build runs.  A forked
        child drops the entries of builds in flight at the fork, so it
        builds those keys itself rather than wait on a thread it lacks.
        """
        while True:
            with self._lock:
                pending = self._building.get(key)
                if pending is None:
                    value = self._lookup(key)
                    if value is None:
                        pending = self._building[key] = threading.Event()
                        break
            if pending is None:
                self._count(True)
                return value
            pending.wait()
        self._count(False)
        try:
            value = build()
        finally:
            with self._lock:
                if value is not None:
                    self._store(key, value)
                if self._building.get(key) is pending:
                    del self._building[key]
            pending.set()
        return value

    def clear(self) -> None:
        """Forget every stored entry (builds in flight still store theirs)."""
        with self._lock:
            self._entries.clear()


class KeyedLocks:
    """A grow-only table of named locks (``lock(key)`` creates on demand).

    Meant for an owner whose keys are bounded by its own lifetime (the
    model cache's execution locks).  Fork-safe like
    :class:`ForkSafeLock`: the whole table is dropped in forked children
    (keyed locks guard in-process races only, and an inherited held lock
    would deadlock the child), so keys lazily mint fresh unlocked locks
    on the child side.
    """

    __slots__ = ("_guard", "_locks", "__weakref__")

    def __init__(self) -> None:
        self._guard = ForkSafeLock()
        self._locks: Dict[object, threading.Lock] = {}
        _register(self)

    def _rebuild(self) -> None:  # pragma: no cover - exercised via fleets
        self._locks = {}

    def lock(self, key: object) -> threading.Lock:
        """The lock for ``key`` (one per key, created on first request)."""
        lock = self._locks.get(key)
        if lock is None:
            with self._guard:
                lock = self._locks.get(key)
                if lock is None:
                    lock = self._locks[key] = threading.Lock()
        return lock

    def __len__(self) -> int:
        return len(self._locks)
