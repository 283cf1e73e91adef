"""Immutable sorted string tables.

An SSTable is a sorted, immutable run of ``(key, fields)`` entries with a
Bloom filter and a binary-searchable index.  Deletions are represented by
the :data:`TOMBSTONE` sentinel so that compaction can drop shadowed data.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from operator import lt
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from repro.storage.bloom import BloomFilter

__all__ = [
    "TOMBSTONE",
    "Versioned",
    "SSTable",
    "sstable_entry_size",
    "resolve_versions",
]


class _Tombstone:
    """Sentinel marking a deleted key inside a run."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "TOMBSTONE"


TOMBSTONE = _Tombstone()

Payload = Union[Mapping[str, str], _Tombstone]


class Versioned:
    """A write's payload stamped with its global sequence number.

    Cassandra resolves conflicting cells by write timestamp, not by which
    run they live in; the sequence number plays that role here and makes
    reads correct regardless of how compaction reorders runs.
    """

    __slots__ = ("seq", "value")

    def __init__(self, seq: int, value: Payload):
        self.seq = seq
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Versioned(seq={self.seq}, value={self.value!r})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Versioned) and self.seq == other.seq
                and self.value == other.value)


Value = Versioned


def resolve_versions(versions: Sequence[Versioned]) -> Versioned:
    """Fold candidate versions of one key into its current state.

    Versions are applied oldest-first: a tombstone wipes everything older;
    a field map upserts onto the surviving fields.  The result carries the
    highest sequence number seen.
    """
    if not versions:
        raise ValueError("resolve_versions requires at least one version")
    ordered = sorted(versions, key=lambda v: v.seq)
    current: Payload = TOMBSTONE
    for version in ordered:
        if version.value is TOMBSTONE:
            current = TOMBSTONE
        elif current is TOMBSTONE:
            current = dict(version.value)
        else:
            current = dict(current)
            current.update(version.value)
    return Versioned(ordered[-1].seq, current)


def sstable_entry_size(key: str, value: Payload) -> int:
    """On-disk bytes for one entry, per the Cassandra 1.0 row layout.

    Mirrors :func:`repro.storage.encoding.encode_sstable_row` arithmetically
    (2-byte key length + key, 8-byte row size, 12-byte deletion info,
    4-byte column count, then per column 2+name+1+8+4+value) so the hot
    path never materialises the byte string.
    """
    if isinstance(value, Versioned):
        value = value.value
    size = 2 + len(key) + 8 + 12 + 4
    if value is TOMBSTONE:
        return size
    for name, field_value in value.items():
        size += 2 + len(name) + 1 + 8 + 4 + len(field_value)
    return size


class SSTable:
    """One immutable sorted run."""

    _next_generation = 0

    def __init__(self, items: Iterable[tuple[str, Value]],
                 bloom_fp_rate: float = 0.01,
                 generation: Optional[int] = None):
        pairs = list(items)
        keys = [k for k, __ in pairs]
        if not all(map(lt, keys, islice(keys, 1, None))):
            raise ValueError("SSTable input must be strictly sorted by key")
        self._keys = keys
        self._values = [v for __, v in pairs]
        if generation is None:
            SSTable._next_generation += 1
            generation = SSTable._next_generation
        self.generation = generation
        self.bloom = BloomFilter(max(1, len(keys)), bloom_fp_rate)
        self.size_bytes = 0
        for key, value in pairs:
            self.bloom.add(key)
            self.size_bytes += sstable_entry_size(key, value)
        self.reads = 0
        self.bloom_rejections = 0

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def min_key(self) -> Optional[str]:
        """Smallest key in the run, or ``None`` if empty."""
        return self._keys[0] if self._keys else None

    @property
    def max_key(self) -> Optional[str]:
        """Largest key in the run, or ``None`` if empty."""
        return self._keys[-1] if self._keys else None

    def may_contain(self, key: str) -> bool:
        """Cheap pre-check: key range plus Bloom filter."""
        if not self._keys or key < self._keys[0] or key > self._keys[-1]:
            return False
        if not self.bloom.might_contain(key):
            self.bloom_rejections += 1
            return False
        return True

    def get(self, key: str) -> Optional[Value]:
        """Point lookup; ``None`` when absent, :data:`TOMBSTONE` if deleted."""
        self.reads += 1
        index = bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            return self._values[index]
        return None

    def scan(self, start_key: str, count: int) -> list[tuple[str, Value]]:
        """Up to ``count`` entries with key >= ``start_key``."""
        index = bisect_left(self._keys, start_key)
        stop = min(len(self._keys), index + max(0, count))
        return list(zip(self._keys[index:stop], self._values[index:stop]))

    def items(self) -> Iterator[tuple[str, Value]]:
        """All entries in key order (compaction input)."""
        return iter(zip(self._keys, self._values))
