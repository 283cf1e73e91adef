"""The log-structured merge engine tying memtable, WAL and SSTables together.

The engine is purely functional: each mutating call returns an
:class:`IoBill` describing the disk work it implies, which the store layer
converts into simulated disk time.  This split keeps the data-structure
logic unit-testable without a simulator.

Conflict resolution uses per-write sequence numbers, matching
Cassandra's timestamp semantics: reads fold every candidate version
(a ``Versioned``: the memtable's cell, or one a run builds from its row
and sequence-number columns) oldest-first, so correctness never depends
on the order compaction leaves the runs in.

Every cell, run entry and WAL record holds a row of the engine's schema
(its field values in ``field_names`` order): ``put`` takes one and keeps
it, and ``get``, ``scan`` and ``items`` hand back the rows held — a row
is immutable, so nothing is copied on the way out.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional

from repro.storage.lsm.compaction import CompactionTask, SizeTieredCompaction
from repro.storage.lsm.memtable import Memtable
from repro.storage.lsm.sstable import (
    SSTable,
    TOMBSTONE,
    Versioned,
    resolve_versions,
    sstable_entry_size,
)
from repro.storage.lsm.wal import CommitLog
from repro.storage.record import APM_SCHEMA, RecordSchema, merge_runs

__all__ = ["IoBill", "LSMConfig", "LSMEngine", "ReadResult"]


@dataclass
class IoBill:
    """Disk work implied by one engine call."""

    wal_sync_bytes: int = 0
    flush_write_bytes: int = 0
    compaction_io_bytes: int = 0
    #: Number of distinct on-disk runs a read had to consult (0 for
    #: memtable-only reads).
    runs_touched: int = 0
    #: Block ids the read touched, for the page-cache model.
    blocks: tuple = ()


@dataclass
class ReadResult:
    """Outcome of a point read."""

    row: Optional[tuple]
    bill: IoBill


@dataclass(frozen=True)
class LSMConfig:
    """Engine tuning knobs (Cassandra 1.0-like defaults, scaled down)."""

    memtable_flush_bytes: int = 8 * 2**20
    bloom_fp_rate: float = 0.01
    group_commit_ops: int = 64
    bloom_enabled: bool = True
    block_size: int = 4096
    min_compaction_threshold: int = 4
    max_compaction_threshold: int = 32


class LSMEngine:
    """A single node's LSM storage engine."""

    def __init__(self, config: LSMConfig = LSMConfig(), name: str = "lsm",
                 schema: RecordSchema = APM_SCHEMA):
        self.config = config
        self.name = name
        self.schema = schema
        self._seq = 0
        self.memtable = Memtable(schema)
        self.commit_log = CommitLog(group_commit_ops=config.group_commit_ops)
        self.sstables: list[SSTable] = []
        #: Logical WAL records since the last flush, in append order —
        #: what a crash-recovery replay reconstructs the memtable from.
        self._wal_records: list[tuple[str, object, int]] = []
        #: Per-engine generation counter.  Generations seed the page-cache
        #: block layout, so they must depend only on this engine's own
        #: history — the process-global SSTable counter would make a run's
        #: cache behaviour vary with whatever ran earlier in the process.
        self._generations = 0
        self.compaction = SizeTieredCompaction(
            min_threshold=config.min_compaction_threshold,
            max_threshold=config.max_compaction_threshold,
            bloom_fp_rate=config.bloom_fp_rate,
            generation_source=self._allocate_generation,
            schema=schema,
        )
        self.flushes = 0
        self.reads = 0
        self.writes = 0
        self.sstables_probed = 0

    def _allocate_generation(self) -> int:
        self._generations += 1
        return self._generations

    # -- write path ---------------------------------------------------------

    def put(self, key: str, row: tuple) -> IoBill:
        """Durably buffer a write of ``row``; returns the implied disk
        work."""
        self.writes += 1
        self._seq = seq = self._seq + 1
        # The row serves the memtable cell and the WAL record alike, and
        # the memtable sizes the write once, for its own flush
        # accounting and for the commit log.
        synced = self.commit_log.append(self.memtable.put(key, row, seq))
        self._wal_records.append((key, row, seq))
        bill = IoBill(wal_sync_bytes=synced)
        self._maybe_flush(bill)
        return bill

    def delete(self, key: str) -> IoBill:
        """Write a tombstone for ``key``."""
        self.writes += 1
        payload = sstable_entry_size(key, TOMBSTONE)
        synced = self.commit_log.append(payload)
        self._seq = seq = self._seq + 1
        self.memtable.delete(key, seq)
        self._wal_records.append((key, TOMBSTONE, seq))
        bill = IoBill(wal_sync_bytes=synced)
        self._maybe_flush(bill)
        return bill

    def _maybe_flush(self, bill: IoBill) -> None:
        if self.memtable.size_bytes >= self.config.memtable_flush_bytes:
            bill.flush_write_bytes += self.flush()
            task = self.maybe_compact()
            if task is not None:
                bill.compaction_io_bytes += task.io_bytes

    def flush(self) -> int:
        """Flush the memtable into a new SSTable; returns bytes written."""
        items = self.memtable.sorted_items()
        if not items:
            return 0
        # The memtable's running total is what the run serialises to.
        table = SSTable(items, bloom_fp_rate=self.config.bloom_fp_rate,
                        generation=self._allocate_generation(),
                        size_bytes=self.memtable.size_bytes)
        self.sstables.append(table)
        self.flushes += 1
        active = self.commit_log.active_segment.index
        self.commit_log.force_sync()
        self.commit_log.mark_clean(active - 1)
        self.memtable = Memtable(self.schema)
        self._wal_records = []
        return table.size_bytes

    def simulate_crash(self) -> int:
        """Crash the node and replay the WAL, as recovery would.

        SSTables are durable; the memtable is rebuilt from the commit
        log's *synced* records.  The unsynced group-commit tail is lost —
        the write-durability window both Cassandra and HBase accept in
        exchange for group commit.  Returns the number of writes lost.
        """
        lost = self.commit_log.pending_ops
        survivors = (self._wal_records[:-lost] if lost
                     else list(self._wal_records))
        self.commit_log.discard_unsynced()
        self.memtable = Memtable(self.schema)
        for key, value, seq in survivors:
            if value is TOMBSTONE:
                self.memtable.delete(key, seq)
            else:
                self.memtable.put(key, value, seq)
        self._wal_records = survivors
        return lost

    def maybe_compact(self) -> Optional[CompactionTask]:
        """Run one round of size-tiered compaction if a bucket is ripe."""
        task = self.compaction.plan(self.sstables)
        if task is None:
            return None
        drop = {id(t) for t in task.inputs}
        self.sstables = [t for t in self.sstables if id(t) not in drop]
        self.sstables.append(task.output)
        return task

    # -- read path ------------------------------------------------------------

    def _block_of(self, table: SSTable, key_bytes: bytes) -> tuple:
        """Block id a key's entry lives in, for the page-cache model.

        The offset proxy must be a *deterministic* hash: built-in
        ``hash()`` on strings is salted per process, which would make
        cache hit patterns — and so every measured number — unrepeatable
        across invocations.  It is the CRC of ``"<generation>:<key>"``,
        continued over the encoded key from the run's CRC of the prefix.
        """
        offset_proxy = zlib.crc32(key_bytes, table.block_seed)
        n_blocks = max(1, table.size_bytes // self.config.block_size)
        return ("sst", self.name, table.generation, offset_proxy % n_blocks)

    def get(self, key: str) -> ReadResult:
        """Point read: memtable first, then every candidate SSTable.

        A complete memtable hit — a row with every column written —
        short-circuits (it is by construction the newest version);
        otherwise all bloom-passing runs are consulted and folded by
        sequence number, exactly like Cassandra's read path.  A key with
        one candidate version is that version.
        """
        self.reads += 1
        candidates: list[Versioned] = []
        buffered = self.memtable.get(key)
        if buffered is not None:
            if buffered.value is TOMBSTONE:
                return ReadResult(None, IoBill())
            if None not in buffered.value:
                return ReadResult(buffered.value, IoBill())
            candidates.append(buffered)
        blocks: list[tuple] = []
        bloom_enabled = self.config.bloom_enabled
        block_size = self.config.block_size
        name = self.name
        crc32 = zlib.crc32
        key_bytes = key.encode()
        for table in reversed(self.sstables):
            if bloom_enabled:
                if not table.may_contain(key):
                    continue
            elif (table.min_key is None or key < table.min_key
                    or key > table.max_key):
                continue
            # ``_block_of``, written out: a call a run probed is the
            # larger part of a read that probes nine of them.
            blocks.append(("sst", name, table.generation,
                           crc32(key_bytes, table.block_seed)
                           % (table.size_bytes // block_size or 1)))
            versioned = table.get(key)
            if versioned is not None:
                candidates.append(versioned)
        self.sstables_probed += len(blocks)
        bill = IoBill(runs_touched=len(blocks), blocks=tuple(blocks))
        if not candidates:
            return ReadResult(None, bill)
        resolved = (candidates[0] if len(candidates) == 1
                    else resolve_versions(candidates))
        if resolved.value is TOMBSTONE:
            return ReadResult(None, bill)
        return ReadResult(resolved.value, bill)

    def scan(self, start_key: str,
             count: int) -> tuple[list[tuple[str, tuple]], IoBill]:
        """Range scan merged across the memtable and every SSTable.

        Tombstones consume candidates without yielding rows, so a fixed
        per-source fetch of ``count`` can truncate the scan early and skip
        live keys hiding behind deleted ones.  Like Cassandra's range
        reads, the fetch widens until ``count`` live rows are found or
        every source is exhausted.  The bill is the last pass's chunks:
        every entry read, live or not.
        """
        self.reads += 1
        if count <= 0:
            return [], IoBill()
        need = count
        while True:
            chunks = [table.scan(start_key, need) for table in self.sstables]
            chunks.append(self.memtable.scan(start_key, need))
            # A source that filled its chunk may hold unseen keys beyond
            # its last returned one; the merge can only trust keys up to
            # the smallest such last key (the frontier).
            frontier = min((chunk[-1][0] for chunk in chunks
                            if len(chunk) == need), default=None)
            live = list(islice(_live(chunks, frontier), count))
            if len(live) == count or frontier is None:
                break
            need *= 2
        block_of = self._block_of
        blocks = tuple(block_of(table, key.encode())
                       for table, chunk in zip(self.sstables, chunks)
                       for key, __ in chunk)
        bill = IoBill(runs_touched=sum(1 for chunk in chunks[:-1] if chunk),
                      blocks=blocks)
        return live, bill

    def items(self) -> Iterator[tuple[str, tuple]]:
        """Every live ``(key, row)``, in key order."""
        runs = [table.items() for table in self.sstables]
        runs.append(self.memtable.sorted_items())
        return _live(runs)

    def iter_blocks(self):
        """All on-disk block ids (cache warm-up after a load phase)."""
        block_of = self._block_of
        for table in self.sstables:
            for key_bytes in map(str.encode, table.keys()):
                yield block_of(table, key_bytes)

    # -- accounting -----------------------------------------------------------

    @property
    def compaction_backlog(self) -> int:
        """SSTables beyond the size-tiered trigger (0 when none is ripe).

        A metrics probe, not a planner: deliberately does *not* call
        :meth:`maybe_compact`, which would eagerly merge as a side
        effect of observation.
        """
        return max(0,
                   len(self.sstables) - self.compaction.min_threshold + 1)

    @property
    def disk_bytes(self) -> int:
        """Current on-disk footprint: SSTables plus commit-log segments."""
        return (sum(t.size_bytes for t in self.sstables)
                + self.commit_log.total_bytes)

    @property
    def record_count(self) -> int:
        """Live records currently visible to reads."""
        return sum(1 for __ in self.items())


def _live(runs, upto: Optional[str] = None) -> Iterator[tuple[str, tuple]]:
    """The live ``(key, row)`` of key-ordered runs of versions: each
    key's versions folded, tombstones dropped, no key past ``upto``."""
    for key, versions in merge_runs(runs):
        if upto is not None and key > upto:
            return
        resolved = (versions[0] if len(versions) == 1
                    else resolve_versions(versions))
        if resolved.value is not TOMBSTONE:
            yield key, resolved.value
