"""Size-tiered compaction.

Cassandra 1.0's default strategy: group SSTables into buckets of similar
size; when a bucket reaches ``min_threshold`` tables, merge them into one.
Newest data wins on key collisions; tombstones drop shadowed entries and
are themselves purged when the merge output is the oldest data for the key
(approximated here by purging tombstones whenever every input run
participates, i.e. a full merge).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby, islice
from operator import itemgetter, lt
from typing import Callable, Optional, Sequence

from repro.storage.lsm.sstable import (
    SSTable,
    TOMBSTONE,
    Versioned,
    resolve_versions,
    sstable_entry_size,
)
from repro.storage.record import APM_SCHEMA, RecordSchema

__all__ = ["CompactionTask", "SizeTieredCompaction", "merge_sstables"]

_KEY_OF = itemgetter(0)


def merge_sstables(tables: Sequence[SSTable], drop_tombstones: bool,
                   bloom_fp_rate: float = 0.01,
                   generation: int | None = None,
                   schema: RecordSchema = APM_SCHEMA) -> SSTable:
    """K-way merge of runs; per-entry sequence numbers resolve conflicts.

    The inputs are sorted runs, so a stable sort of their concatenation
    is the merge (timsort finds the runs and merges them) and leaves the
    versions of a key adjacent, in input order.  Where no key repeats —
    a load's compaction, and every merge of insert-only runs — every
    version is carried over as it is (its row is the very object the
    input run held; the :class:`Versioned` around it lives only for the
    merge) and the output's size is the sum of its inputs'; entries are
    sized only where the merge drops or creates one.
    """
    pairs: list[tuple[str, Versioned]] = []
    for table in tables:
        pairs.extend(table.items())
    pairs.sort(key=_KEY_OF)
    size_bytes = sum(table.size_bytes for table in tables)
    keys = [key for key, __ in pairs]
    if not all(map(lt, keys, islice(keys, 1, None))):
        folded: list[tuple[str, Versioned]] = []
        for key, group in groupby(pairs, key=_KEY_OF):
            versions = [versioned for __, versioned in group]
            resolved = versions[0]
            if len(versions) > 1:
                resolved = resolve_versions(versions)
                size_bytes += sstable_entry_size(
                    key, resolved.value, schema) - sum(
                    sstable_entry_size(key, version.value, schema)
                    for version in versions)
            folded.append((key, resolved))
        pairs = folded
    if drop_tombstones:
        purged = [key for key, versioned in pairs
                  if versioned.value is TOMBSTONE]
        if purged:
            size_bytes -= sum(sstable_entry_size(key, TOMBSTONE)
                              for key in purged)
            pairs = [pair for pair in pairs if pair[1].value is not TOMBSTONE]
    return SSTable(pairs, bloom_fp_rate=bloom_fp_rate,
                   generation=generation, size_bytes=size_bytes)


@dataclass
class CompactionTask:
    """A planned merge: inputs, output, and the IO bill for the simulator."""

    inputs: list[SSTable]
    output: SSTable
    read_bytes: int = 0
    write_bytes: int = 0

    @property
    def io_bytes(self) -> int:
        """Total sequential IO the merge performs."""
        return self.read_bytes + self.write_bytes


@dataclass
class SizeTieredCompaction:
    """Cassandra's SizeTieredCompactionStrategy."""

    min_threshold: int = 4
    max_threshold: int = 32
    bucket_low: float = 0.5
    bucket_high: float = 1.5
    bloom_fp_rate: float = 0.01
    #: Allocator for the merged run's generation id.  The engine passes
    #: its per-engine counter so generations — which seed the block-id
    #: layout of the page-cache model — never depend on how many engines
    #: ran earlier in the process (run-to-run determinism).
    generation_source: Optional[Callable[[], int]] = None
    #: The schema of the rows the runs hold, for sizing a folded entry.
    schema: RecordSchema = APM_SCHEMA
    compactions_run: int = field(default=0, init=False)

    def _buckets(self, tables: Sequence[SSTable]) -> list[list[SSTable]]:
        averages: list[float] = []
        buckets: list[list[SSTable]] = []
        for table in sorted(tables, key=lambda t: t.size_bytes):
            for i, average in enumerate(averages):
                low = average * self.bucket_low
                high = average * self.bucket_high
                tiny = table.size_bytes < 50 and average < 50
                if low <= table.size_bytes <= high or tiny:
                    buckets[i].append(table)
                    averages[i] = (
                        sum(t.size_bytes for t in buckets[i]) / len(buckets[i])
                    )
                    break
            else:
                averages.append(float(table.size_bytes))
                buckets.append([table])
        return buckets

    def plan(self, tables: Sequence[SSTable]) -> CompactionTask | None:
        """Choose the next merge, or ``None`` if no bucket is ripe."""
        candidates = [
            bucket for bucket in self._buckets(tables)
            if len(bucket) >= self.min_threshold
        ]
        if not candidates:
            return None
        # Prefer the bucket with the most (smallest) tables, like Cassandra.
        bucket = max(candidates, key=len)[: self.max_threshold]
        drop_tombstones = len(bucket) == len(tables)
        generation = (self.generation_source()
                      if self.generation_source is not None else None)
        output = merge_sstables(bucket, drop_tombstones, self.bloom_fp_rate,
                                generation=generation, schema=self.schema)
        self.compactions_run += 1
        return CompactionTask(
            inputs=list(bucket),
            output=output,
            read_bytes=sum(t.size_bytes for t in bucket),
            write_bytes=output.size_bytes,
        )
