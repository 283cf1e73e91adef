"""Key choosers and record generation.

Implements YCSB's generator stack: a uniform chooser (the paper's
configuration), the classic zipfian generator (Gray et al.'s algorithm,
as in YCSB), and a "latest" chooser that skews towards recent inserts.
Records follow the paper's schema: 25-byte keys, five 10-byte fields.
"""

from __future__ import annotations

import random
from functools import cache
from hashlib import shake_128
from typing import Iterator

from repro.hashing import murmur64a
from repro.keyspace import render_key, scatter_hash, scatter_hashes
from repro.storage.record import APM_SCHEMA, Record, RecordSchema

__all__ = [
    "UniformChooser",
    "ZipfianChooser",
    "LatestChooser",
    "KeySequence",
    "make_chooser",
    "generate_field_value",
    "generate_record",
    "generate_records",
]


_VALUE_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"

#: Byte -> alphabet symbol.  256 is not a multiple of 36, so four symbols
#: are 1/256 likelier than the rest; field bytes are content-free by
#: contract (only their lengths reach the simulation), so that is moot.
_TO_ALPHABET = bytes(ord(_VALUE_ALPHABET[byte % len(_VALUE_ALPHABET)])
                     for byte in range(256))

#: Values per field length: one byte picks a record's field value.
_TABLE_SIZE = 256


@cache
def _value_table(length: int) -> tuple[str, ...]:
    """The 256 field values ``length`` characters long, built at first use.

    One extendable-output hash per length, its bytes mapped onto the
    alphabet and cut into 256 strings.  Every field value of that length
    a record carries is one of these objects, shared, never a copy.
    """
    stream = shake_128(length.to_bytes(8, "big")).digest(_TABLE_SIZE * length)
    text = stream.translate(_TO_ALPHABET).decode("ascii")
    return tuple(text[i * length:(i + 1) * length]
                 for i in range(_TABLE_SIZE))


def _picks(scattered: int, count: int) -> bytes:
    """At least ``count`` bytes, byte ``i`` picking field ``i``'s value.

    The first eight are the scatter hash's, low byte first; each further
    eight re-hash the eight before them.
    """
    block = scattered.to_bytes(8, "little")
    picks = block
    while len(picks) < count:
        block = murmur64a(block).to_bytes(8, "little")
        picks += block
    return picks


def generate_field_value(record_number: int, field_index: int,
                         length: int) -> str:
    """Deterministic field content for record/field (reproducible loads)."""
    picks = _picks(scatter_hash(record_number), field_index + 1)
    return _value_table(length)[picks[field_index]]


def generate_record(record_number: int,
                    schema: RecordSchema = APM_SCHEMA,
                    scattered: int | None = None) -> Record:
    """The benchmark record for ``record_number``.

    One hash a record: the scatter hash renders the key and its bytes
    pick the field values from the shared table.  ``scattered`` is that
    hash when the caller has it already.
    """
    if scattered is None:
        scattered = scatter_hash(record_number)
    values = _value_table(schema.field_length).__getitem__
    picks = _picks(scattered, schema.field_count)
    return Record(render_key(scattered),
                  dict(zip(schema.field_names, map(values, picks))))


#: Record numbers ``generate_records`` hashes in one batch.  A batch
#: holds its hashes in one ``array('Q')``, nothing the collector tracks,
#: so only the per-call cost sets its size.
_SCATTER_BATCH = 4000


def generate_records(count: int,
                     schema: RecordSchema = APM_SCHEMA) -> Iterator[Record]:
    """The first ``count`` benchmark records.

    Their scatter hashes are taken ``_SCATTER_BATCH`` at a time, in one
    batched hash each; every record is still ``generate_record``'s.
    """
    for start in range(0, count, _SCATTER_BATCH):
        numbers = range(start, min(start + _SCATTER_BATCH, count))
        for number, scattered in zip(numbers, scatter_hashes(numbers)):
            yield generate_record(number, schema, scattered)


class KeySequence:
    """A shared counter handing out fresh record numbers for inserts.

    APM data is append-only (Section 2): every insert creates a new
    record.  All client threads share one sequence, like YCSB's
    ``CounterGenerator``.
    """

    def __init__(self, start: int):
        self._next = start

    @property
    def next_value(self) -> int:
        """The record number the next insert will consume."""
        return self._next

    def take(self) -> int:
        """Claim the next record number."""
        value = self._next
        self._next += 1
        return value


class UniformChooser:
    """Uniform choice over the loaded record numbers (the paper's mode)."""

    def __init__(self, record_count: int, rng: random.Random):
        if record_count < 1:
            raise ValueError("record_count must be >= 1")
        self.record_count = record_count
        self._rng = rng

    def next_record_number(self) -> int:
        """A uniformly random loaded record number."""
        return self._rng.randrange(self.record_count)


class ZipfianChooser:
    """YCSB's ZipfianGenerator (Gray et al.): skewed towards low items.

    Included for workload extensions; the paper's experiments are uniform.
    The popular items are scattered across the key space by the key
    formatter, like YCSB's ``ScrambledZipfianGenerator``.
    """

    #: YCSB's ``ZIPFIAN_CONSTANT``.
    THETA = 0.99

    def __init__(self, record_count: int, rng: random.Random):
        if record_count < 1:
            raise ValueError("record_count must be >= 1")
        theta = self.THETA
        self.record_count = record_count
        self._rng = rng
        self._alpha = 1.0 / (1.0 - theta)
        self._zetan = self._zeta(record_count)
        self._zeta2 = self._zeta(2)
        self._eta = ((1 - (2.0 / record_count) ** (1 - theta))
                     / (1 - self._zeta2 / self._zetan))

    def _zeta(self, n: int) -> float:
        return sum(1.0 / (i ** self.THETA) for i in range(1, n + 1))

    def next_record_number(self) -> int:
        """A zipf-distributed record number in [0, record_count)."""
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.THETA:
            return 1
        return int(self.record_count
                   * (self._eta * u - self._eta + 1) ** self._alpha)


class LatestChooser:
    """Skews towards recently inserted records (YCSB "latest")."""

    def __init__(self, sequence: KeySequence, rng: random.Random):
        self._sequence = sequence
        self._rng = rng
        self._zipf: ZipfianChooser | None = None
        self._zipf_horizon = 0

    def next_record_number(self) -> int:
        """A record number, most likely near the head of the sequence."""
        horizon = max(1, self._sequence.next_value)
        # Rebuilding the zipfian table is O(n); refresh it only when the
        # insert horizon has grown materially (like YCSB's incremental
        # zeta update).
        if self._zipf is None or horizon > self._zipf_horizon * 1.25:
            self._zipf = ZipfianChooser(horizon, self._rng)
            self._zipf_horizon = horizon
        offset = self._zipf.next_record_number() % horizon
        return max(0, horizon - 1 - offset)


def make_chooser(distribution: str, record_count: int,
                 sequence: KeySequence, rng: random.Random):
    """Build the key chooser named by ``distribution``."""
    if distribution == "uniform":
        return UniformChooser(record_count, rng)
    if distribution == "zipfian":
        return ZipfianChooser(record_count, rng)
    if distribution == "latest":
        return LatestChooser(sequence, rng)
    raise ValueError(f"unknown distribution {distribution!r}")
