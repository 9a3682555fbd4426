"""SRAM and FRAM models.

The memories serve two roles:

* capacity accounting — named region allocation with overflow checks
  (``ResourceExceededError`` mirrors a linker failure on the real part);
* persistence semantics — FRAM carries a key/value store that survives
  power failures (checkpoints, loop indices, model weights), while SRAM's
  store is wiped by :meth:`Sram.power_fail`.

Access *energy* is booked by the owning :class:`~repro.hw.board.Device`
when it executes actions, not here, so the memory classes stay passive.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.errors import CheckpointError, ResourceExceededError


class MemoryRegion:
    """Base byte-capacity accounting with named allocations."""

    def __init__(self, name: str, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self._allocations: Dict[str, int] = {}

    @property
    def used_bytes(self) -> int:
        return sum(self._allocations.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def allocate(self, label: str, n_bytes: int) -> None:
        """Reserve ``n_bytes`` under ``label`` (idempotent re-reserve grows)."""
        if n_bytes < 0:
            raise ValueError("allocation size must be non-negative")
        new_total = self.used_bytes - self._allocations.get(label, 0) + n_bytes
        if new_total > self.capacity_bytes:
            raise ResourceExceededError(
                f"{self.name}: allocating {n_bytes} B for {label!r} exceeds "
                f"capacity {self.capacity_bytes} B "
                f"(currently used: {self.used_bytes} B)"
            )
        self._allocations[label] = n_bytes

    def free(self, label: str) -> None:
        self._allocations.pop(label, None)

    def allocations(self) -> Dict[str, int]:
        return dict(self._allocations)


class Sram(MemoryRegion):
    """Volatile SRAM (8 KB on the MSP430FR5994, shared with the LEA)."""

    def __init__(self, capacity_bytes: int = 8 * 1024) -> None:
        super().__init__("SRAM", capacity_bytes)
        self._store: Dict[str, Any] = {}

    def put(self, key: str, value: Any) -> None:
        self._store[key] = value

    def get(self, key: str, default: Any = None) -> Any:
        return self._store.get(key, default)

    def power_fail(self) -> None:
        """Lose all volatile contents (brown-out)."""
        self._store.clear()

    def __contains__(self, key: str) -> bool:
        return key in self._store


class Fram(MemoryRegion):
    """Nonvolatile FRAM (256 KB): weights, checkpoints, control state."""

    def __init__(self, capacity_bytes: int = 256 * 1024) -> None:
        super().__init__("FRAM", capacity_bytes)
        self._store: Dict[str, Any] = {}

    def put(self, key: str, value: Any) -> None:
        self._store[key] = value

    def get(self, key: str, default: Any = None) -> Any:
        return self._store.get(key, default)

    def require(self, key: str) -> Any:
        """Fetch a value that must exist (checkpoint restore path)."""
        if key not in self._store:
            raise CheckpointError(f"FRAM key {key!r} missing on restore")
        return self._store[key]

    def delete(self, key: str) -> None:
        self._store.pop(key, None)

    def __contains__(self, key: str) -> bool:
        return key in self._store
