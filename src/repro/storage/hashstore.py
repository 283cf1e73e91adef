"""In-memory hash + sorted-set store (the Redis data model).

YCSB's Redis binding stores each record as a Redis *hash* keyed by the
record key and additionally indexes every key in one global *sorted set*
so that scans are possible.  This module reproduces that layout: a Python
dict of rows (tuples of field values in the schema's ``field_names``
order, held and handed back as they came) plus a :class:`SortedKeys`
index of their keys standing in for the zset, with jemalloc-style memory
accounting (which still bills the zset's skip-list nodes) used by the
Redis out-of-memory analysis of Section 5.1.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.storage.encoding import redis_memory_per_record
from repro.storage.record import APM_SCHEMA, RecordSchema
from repro.storage.sortedkeys import SortedKeys

__all__ = ["HashStore"]


class HashStore:
    """A single Redis-like node's keyspace."""

    def __init__(self, schema: RecordSchema = APM_SCHEMA,
                 max_memory_bytes: Optional[int] = None):
        self.schema = schema
        self.max_memory_bytes = max_memory_bytes
        self._hashes: dict[str, tuple] = {}
        self._index: Optional[SortedKeys] = None
        self._bytes_per_record = redis_memory_per_record(schema)
        self.evictions = 0
        self.oom_errors = 0

    def __len__(self) -> int:
        return len(self._hashes)

    @property
    def used_memory_bytes(self) -> float:
        """Estimated resident set of the keyspace."""
        return len(self._hashes) * self._bytes_per_record

    @property
    def is_full(self) -> bool:
        """Whether the next insert would exceed ``max_memory_bytes``."""
        if self.max_memory_bytes is None:
            return False
        return (self.used_memory_bytes + self._bytes_per_record
                > self.max_memory_bytes)

    def hset(self, key: str, row: tuple) -> bool:
        """HMSET + ZADD: store the row and index its key.

        Returns ``False`` (and counts an OOM error) when the memory limit
        is reached and the key is new — the failure mode the paper hit on
        its hottest Redis shard at 12 nodes.
        """
        stored = self._hashes.get(key)
        if stored is not None:
            self._hashes[key] = self.schema.overlay(stored, row)
            return True
        if self.is_full:
            self.oom_errors += 1
            return False
        self._hashes[key] = row
        if self._index is not None:
            self._index.add(key)
        return True

    def index(self) -> SortedKeys:
        """The sorted set of keys, sorted now if nothing scanned before.

        A store nothing scans — one a load fills for reads alone — never
        sorts its keys.
        """
        if self._index is None:
            self._index = SortedKeys(self._hashes)
        return self._index

    def hgetall(self, key: str) -> Optional[tuple]:
        """Fetch the row of a record."""
        return self._hashes.get(key)

    def zrange_from(self, start_key: str, count: int) -> list[str]:
        """Keys >= ``start_key`` in order (ZRANGEBYLEX on the index)."""
        return self.index().keys_from(start_key, count)

    def hgetall_many(self, keys: Iterable[str]) -> list[tuple[str, tuple]]:
        """Pipelined HGETALLs: ``(key, row)`` of each of ``keys`` still
        held, in order."""
        hashes = self._hashes
        return [(key, hashes[key]) for key in keys if key in hashes]

    def scan(self, start_key: str, count: int) -> list[tuple[str, tuple]]:
        """Range scan via the key index, then per-key HGETALL."""
        return self.hgetall_many(self.zrange_from(start_key, count))

    def delete(self, key: str) -> bool:
        """DEL + ZREM; returns whether the key existed."""
        if key not in self._hashes:
            return False
        del self._hashes[key]
        if self._index is not None:
            self._index.remove(key)
        return True
