"""The LSM memtable: an in-memory sorted buffer of recent writes."""

from __future__ import annotations

from typing import Optional

from repro.storage.lsm.sstable import (
    TOMBSTONE,
    Versioned,
    sstable_entry_size,
)
from repro.storage.record import APM_SCHEMA, RecordSchema
from repro.storage.sortedkeys import SortedKeys

__all__ = ["Memtable"]


class Memtable:
    """Write buffer with byte accounting, scanned in key order.

    ``size_bytes`` tracks the *serialised* size of the buffered entries
    (what the flush will write), which is what the engine compares against
    its flush threshold — the same policy Cassandra's
    ``memtable_total_space_in_mb`` implements.

    Every stored value is a :class:`Versioned` stamped by the engine's
    global write sequence, so conflict resolution stays correct across
    flush and compaction boundaries; its payload is a row of ``schema``.
    The cell is the memtable's alone: an upsert restamps it in place, and
    a flush unpacks it into the run's row and sequence-number columns
    (see :class:`~repro.storage.lsm.sstable.SSTable`), so no cell
    outlives its memtable.

    Cells live in a dict in arrival order; the :class:`SortedKeys` index
    that keeps their keys in order is made at the first scan (see
    :meth:`ordered`).  A memtable nothing scans — every one a load fills
    — never makes one; a flush sorts the dict once.
    """

    def __init__(self, schema: RecordSchema = APM_SCHEMA):
        self._cells: dict[str, Versioned] = {}
        self._schema = schema
        self._ordered: Optional[SortedKeys] = None
        self.size_bytes = 0
        self.ops = 0

    def __len__(self) -> int:
        return len(self._cells)

    def _setdefault(self, key: str, cell: Versioned) -> Versioned:
        existing = self._cells.setdefault(key, cell)
        if existing is cell and self._ordered is not None:
            self._ordered.add(key)
        return existing

    def put(self, key: str, row: tuple, seq: int) -> int:
        """Insert or column-wise upsert ``row`` under ``key``.

        Returns the serialised size of the write itself (``key`` plus the
        columns ``row`` carries), which is what the engine's commit log
        records.  A fresh key's cell keeps ``row`` as its payload.
        """
        self.ops += 1
        schema = self._schema
        written = sstable_entry_size(key, row, schema)
        cell = Versioned(seq, row)
        existing = self._setdefault(key, cell)
        if existing is cell:
            self.size_bytes += written
            return written
        # Already buffered: the memtable's own cell is restamped in
        # place.  A row is a tuple, so a reader holding the old one keeps
        # what it read.
        replaced = sstable_entry_size(key, existing.value, schema)
        if existing.value is TOMBSTONE:  # revive: the write starts afresh
            existing.value = row
            self.size_bytes += written - replaced
        else:
            existing.value = RecordSchema.overlay(existing.value, row)
            self.size_bytes += (sstable_entry_size(key, existing.value,
                                                   schema) - replaced)
        existing.seq = seq
        return written

    def delete(self, key: str, seq: int) -> None:
        """Record a deletion (tombstone) for ``key``."""
        self.ops += 1
        cell = Versioned(seq, TOMBSTONE)
        existing = self._setdefault(key, cell)
        tombstone = sstable_entry_size(key, TOMBSTONE)
        if existing is cell:
            self.size_bytes += tombstone
            return
        self.size_bytes += tombstone - sstable_entry_size(
            key, existing.value, self._schema)
        existing.seq = seq
        existing.value = TOMBSTONE

    def get(self, key: str) -> Optional[Versioned]:
        """Buffered version for ``key``, or ``None`` if not buffered."""
        return self._cells.get(key)

    def ordered(self) -> SortedKeys:
        """The cells in key order, sorted now if nothing scanned before."""
        if self._ordered is None:
            self._ordered = SortedKeys(self._cells)
        return self._ordered

    def scan(self, start_key: str, count: int) -> list[tuple[str, Versioned]]:
        """Up to ``count`` buffered entries with key >= ``start_key``."""
        return self.ordered().scan(start_key, count)

    def sorted_items(self) -> list[tuple[str, Versioned]]:
        """All buffered entries in key order (flush input)."""
        return sorted(self._cells.items())
