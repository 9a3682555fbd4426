"""SRAM and FRAM models.

Both memories are named key/value stores of a fixed byte capacity.  FRAM's
store survives power failures (checkpoints, loop indices, model weights),
while SRAM's store is wiped by :meth:`Sram.power_fail`.

Access *energy* is booked by the owning :class:`~repro.hw.board.Device`
when it executes actions, not here, so the memory classes stay passive.
"""

from __future__ import annotations

from typing import Any, Dict


class MemoryRegion:
    """A named key/value store of ``capacity_bytes`` bytes."""

    def __init__(self, name: str, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self._store: Dict[str, Any] = {}

    def put(self, key: str, value: Any) -> None:
        self._store[key] = value

    def get(self, key: str, default: Any = None) -> Any:
        return self._store.get(key, default)

    def __contains__(self, key: str) -> bool:
        return key in self._store


class Sram(MemoryRegion):
    """Volatile SRAM (8 KB on the MSP430FR5994, shared with the LEA)."""

    def __init__(self, capacity_bytes: int = 8 * 1024) -> None:
        super().__init__("SRAM", capacity_bytes)

    def power_fail(self) -> None:
        """Lose all volatile contents (brown-out)."""
        self._store.clear()


class Fram(MemoryRegion):
    """Nonvolatile FRAM (256 KB): weights, checkpoints, control state."""

    def __init__(self, capacity_bytes: int = 256 * 1024) -> None:
        super().__init__("FRAM", capacity_bytes)
