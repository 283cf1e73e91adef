"""The LSM memtable: an in-memory sorted buffer of recent writes."""

from __future__ import annotations

from typing import Mapping, Optional

from repro.storage.lsm.sstable import (
    TOMBSTONE,
    Versioned,
    sstable_entry_size,
)
from repro.storage.skiplist import SkipList

__all__ = ["Memtable"]


class Memtable:
    """Skip-list-backed write buffer with byte accounting.

    ``size_bytes`` tracks the *serialised* size of the buffered entries
    (what the flush will write), which is what the engine compares against
    its flush threshold — the same policy Cassandra's
    ``memtable_total_space_in_mb`` implements.

    Every stored value is a :class:`Versioned` stamped by the engine's
    global write sequence, so conflict resolution stays correct across
    flush and compaction boundaries.
    """

    def __init__(self, seed: int = 0):
        self._data = SkipList(seed=seed)
        self.size_bytes = 0
        self.ops = 0

    def __len__(self) -> int:
        return len(self._data)

    def put(self, key: str, fields: Mapping[str, str], seq: int) -> int:
        """Insert or column-wise upsert ``fields`` under ``key``.

        Returns the serialised size of the write itself (``key`` plus the
        ``fields`` given), which is what the engine's commit log records.
        """
        self.ops += 1
        written = sstable_entry_size(key, fields)
        cell = Versioned(seq, dict(fields))
        existing: Versioned = self._data.setdefault(key, cell)
        growth = written
        if existing is not cell:  # already buffered: upsert, or revive
            if existing.value is not TOMBSTONE:
                cell.value = {**existing.value, **fields}
                growth = (sstable_entry_size(key, cell.value)
                          - sstable_entry_size(key, existing.value))
            self._data.put(key, cell)
        self.size_bytes += growth
        return written

    def delete(self, key: str, seq: int) -> None:
        """Record a deletion (tombstone) for ``key``."""
        self.ops += 1
        existing: Optional[Versioned] = self._data.get(key)
        if existing is not None and existing.value is not TOMBSTONE:
            self.size_bytes -= sstable_entry_size(key, existing.value)
        elif existing is None:
            self.size_bytes += sstable_entry_size(key, TOMBSTONE)
        self._data.put(key, Versioned(seq, TOMBSTONE))

    def get(self, key: str) -> Optional[Versioned]:
        """Buffered version for ``key``, or ``None`` if not buffered."""
        return self._data.get(key)

    def scan(self, start_key: str, count: int) -> list[tuple[str, Versioned]]:
        """Up to ``count`` buffered entries with key >= ``start_key``."""
        return self._data.scan(start_key, count)

    def sorted_items(self) -> list[tuple[str, Versioned]]:
        """All buffered entries in key order (flush input)."""
        return list(self._data.items())
