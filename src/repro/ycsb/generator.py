"""Key choosers and record generation.

Implements YCSB's generator stack: a uniform chooser (the paper's
configuration), the classic zipfian generator (Gray et al.'s algorithm,
as in YCSB), and a "latest" chooser that skews towards recent inserts.
Records follow the paper's schema: 25-byte keys, five 10-byte fields.
"""

from __future__ import annotations

import random
from hashlib import shake_128
from typing import Iterator

from repro.keyspace import format_key
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


def _field_chars(record_number: int, count: int) -> str:
    """The first ``count`` field characters of record ``record_number``.

    One extendable-output hash per record: a longer request only extends
    a shorter one, so any field of any length is a slice of the same
    stream, and the stream depends on nothing but the record number.
    """
    stream = shake_128(record_number.to_bytes(8, "big")).digest(count)
    return stream.translate(_TO_ALPHABET).decode("ascii")


def generate_field_value(record_number: int, field_index: int,
                         length: int) -> str:
    """Deterministic field content for record/field (reproducible loads)."""
    start = field_index * length
    return _field_chars(record_number, start + length)[start:]


def generate_record(record_number: int,
                    schema: RecordSchema = APM_SCHEMA) -> Record:
    """The benchmark record for ``record_number``."""
    chars = _field_chars(record_number, schema.raw_value_bytes)
    fields = {name: chars[span] for name, span in schema.field_slices}
    return Record(format_key(record_number), fields)


def generate_records(count: int,
                     schema: RecordSchema = APM_SCHEMA) -> Iterator[Record]:
    """The first ``count`` benchmark records."""
    for i in range(count):
        yield generate_record(i, schema)


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
