"""Immutable sorted string tables.

An SSTable is a sorted, immutable run of ``(key, row)`` entries, each
stamped with its write's sequence number, with a Bloom filter, a hashed
index for point reads and a sorted key list for range reads.  A row is
the tuple of a record's field values in the schema's ``field_names``
order, ``None`` for a column the write did not carry.  Deletions are
represented by the :data:`TOMBSTONE` sentinel so that compaction can
drop shadowed data.
"""

from __future__ import annotations

import zlib
from array import array
from bisect import bisect_left
from functools import cached_property
from itertools import islice, repeat
from operator import lt
from typing import Iterable, Iterator, Optional, Sequence, Union

from repro.storage.bloom import BloomFilter
from repro.storage.record import APM_SCHEMA, RecordSchema

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

Payload = Union[tuple, _Tombstone]


class Versioned:
    """A write's payload stamped with its global sequence number.

    Cassandra resolves conflicting cells by write timestamp, not by which
    run they live in; the sequence number plays that role here and makes
    reads correct regardless of how compaction reorders runs.  It is the
    memtable's mutable cell; a run holds none, and builds one for each
    version it hands out.
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


def resolve_versions(versions: Sequence[Versioned]) -> Versioned:
    """Fold candidate versions of one key into its current state.

    Versions are applied oldest-first: a tombstone wipes everything older;
    a row overlays its written columns onto the surviving ones.  The
    result carries the highest sequence number seen.
    """
    if not versions:
        raise ValueError("resolve_versions requires at least one version")
    ordered = sorted(versions, key=lambda v: v.seq)
    overlay = RecordSchema.overlay
    current: Payload = TOMBSTONE
    for version in ordered:
        if version.value is TOMBSTONE or current is TOMBSTONE:
            current = version.value
        else:
            current = overlay(current, version.value)
    return Versioned(ordered[-1].seq, current)


def sstable_entry_size(key: str, value: Payload,
                       schema: RecordSchema = APM_SCHEMA) -> int:
    """On-disk bytes for one entry, per the Cassandra 1.0 row layout.

    Mirrors :func:`repro.storage.encoding.encode_sstable_row` arithmetically
    (2-byte key length + key, 8-byte row size, 12-byte deletion info,
    4-byte column count, then per written column 2+name+1+8+4+value) so
    the hot path never materialises the byte string; a row of ``schema``
    names its columns by position.
    """
    size = _ROW_BYTES + len(key)
    if value is TOMBSTONE:
        return size
    if None not in value:  # every column written
        return (size + _COLUMN_BYTES * len(value)
                + schema.field_names_length + sum(map(len, value)))
    for name, field_value in zip(schema.field_names, value):
        if field_value is not None:
            size += _COLUMN_BYTES + len(name) + len(field_value)
    return size


#: Fixed bytes of a row (beside its key) and of a column (beside its
#: name and value) in the layout above.
_ROW_BYTES = 2 + 8 + 12 + 4
_COLUMN_BYTES = 2 + 1 + 8 + 4


class SSTable:
    """One immutable sorted run.

    An entry is sized where it is created: ``size_bytes`` is the entries'
    serialised size when whoever built them kept the sum (a flush has the
    memtable's running total, a merge its inputs' sizes); without it they
    are sized here, as rows of ``schema``.

    A run is held as three columns, not as a cell an entry: the sorted
    key list, a ``key -> row`` dict in key order (the rows the input
    versions carried, not copies) and an ``array('Q')`` of sequence
    numbers in key order.  A point probe is one hashed lookup; a hit
    bisects the key list for its sequence number.  A range read bisects
    for its start and slices the columns.  Every :class:`Versioned` a run
    hands out is built for the caller; a sequence number outside
    ``[0, 2**64)`` raises :class:`OverflowError` when the run is built.
    """

    _next_generation = 0

    def __init__(self, items: Iterable[tuple[str, Versioned]],
                 bloom_fp_rate: float = 0.01,
                 generation: Optional[int] = None,
                 size_bytes: Optional[int] = None,
                 schema: RecordSchema = APM_SCHEMA):
        pairs = items if isinstance(items, list) else list(items)
        keys = [k for k, __ in pairs]
        if not all(map(lt, keys, islice(keys, 1, None))):
            raise ValueError("SSTable input must be strictly sorted by key")
        self._keys = keys
        self._rows = rows = {k: v.value for k, v in pairs}
        self._seqs = array("Q", [v.seq for __, v in pairs])
        #: Smallest and largest key in the run, ``None`` if it is empty.
        self.min_key: Optional[str] = keys[0] if keys else None
        self.max_key: Optional[str] = keys[-1] if keys else None
        if generation is None:
            SSTable._next_generation += 1
            generation = SSTable._next_generation
        self.generation = generation
        #: CRC of the ``"<generation>:"`` prefix every block-offset proxy
        #: of this run starts from (see ``LSMEngine._block_of``).
        self.block_seed = zlib.crc32(b"%d:" % generation)
        self._bloom_fp_rate = bloom_fp_rate
        if size_bytes is None:
            size_bytes = sum(map(sstable_entry_size, keys, rows.values(),
                                 repeat(schema)))
        self.size_bytes = size_bytes
        self.reads = 0
        self.bloom_rejections = 0

    def __len__(self) -> int:
        return len(self._keys)

    @cached_property
    def bloom(self) -> BloomFilter:
        """The run's filter, built at its first probe: a run a compaction
        merges away unread, or one whose engine reads without filters,
        never pays for one."""
        bloom = BloomFilter(max(1, len(self._keys)), self._bloom_fp_rate)
        bloom.add_all(self._keys)
        return bloom

    def may_contain(self, key: str) -> bool:
        """Cheap pre-check: key range plus Bloom filter."""
        if self.min_key is None or key < self.min_key or key > self.max_key:
            return False
        if not self.bloom.might_contain(key):
            self.bloom_rejections += 1
            return False
        return True

    def get(self, key: str) -> Optional[Versioned]:
        """Point lookup: the key's version, ``None`` when absent (its
        value is :data:`TOMBSTONE` if deleted)."""
        self.reads += 1
        row = self._rows.get(key)
        if row is None:
            return None
        return Versioned(self._seqs[bisect_left(self._keys, key)], row)

    def scan(self, start_key: str, count: int) -> list[tuple[str, Versioned]]:
        """Up to ``count`` entries with key >= ``start_key``."""
        index = bisect_left(self._keys, start_key)
        stop = index + max(0, count)
        keys = self._keys[index:stop]
        return list(zip(keys, map(Versioned, self._seqs[index:stop],
                                  map(self._rows.__getitem__, keys))))

    def keys(self) -> Iterator[str]:
        """All keys in order."""
        return iter(self._keys)

    def items(self) -> Iterator[tuple[str, Versioned]]:
        """All entries in key order (compaction input)."""
        return zip(self._rows, map(Versioned, self._seqs,
                                   self._rows.values()))
