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
        A fresh key's cell keeps ``fields`` as its payload, uncopied: the
        caller hands the mapping over and does not mutate it afterwards.
        """
        self.ops += 1
        written = sstable_entry_size(key, fields)
        cell = Versioned(seq, fields)
        existing: Versioned = self._data.setdefault(key, cell)
        if existing is cell:
            self.size_bytes += written
            return written
        # Already buffered: the one descent found the memtable's own
        # cell, which is restamped in place.  Payload mappings are never
        # mutated, so a reader holding the old one keeps what it read.
        replaced = sstable_entry_size(key, existing.value)
        if existing.value is TOMBSTONE:  # revive: the write starts afresh
            existing.value = fields
            self.size_bytes += written - replaced
        else:
            existing.value = {**existing.value, **fields}
            self.size_bytes += (sstable_entry_size(key, existing.value)
                                - replaced)
        existing.seq = seq
        return written

    def delete(self, key: str, seq: int) -> None:
        """Record a deletion (tombstone) for ``key``."""
        self.ops += 1
        cell = Versioned(seq, TOMBSTONE)
        existing: Versioned = self._data.setdefault(key, cell)
        tombstone = sstable_entry_size(key, TOMBSTONE)
        if existing is cell:
            self.size_bytes += tombstone
            return
        self.size_bytes += tombstone - sstable_entry_size(key, existing.value)
        existing.seq = seq
        existing.value = TOMBSTONE

    def get(self, key: str) -> Optional[Versioned]:
        """Buffered version for ``key``, or ``None`` if not buffered."""
        return self._data.get(key)

    def scan(self, start_key: str, count: int) -> list[tuple[str, Versioned]]:
        """Up to ``count`` buffered entries with key >= ``start_key``."""
        return self._data.scan(start_key, count)

    def sorted_items(self) -> list[tuple[str, Versioned]]:
        """All buffered entries in key order (flush input)."""
        return list(self._data.items())
