"""The benchmark record model.

Section 3: "Our data set consists of records with a single alphanumeric key
with a length of 25 bytes and 5 value fields each with 10 bytes.  Thus, a
single record has a raw size of 75 bytes."

A :class:`RecordSchema` captures that shape; a record is a key and a
row, the tuple of its field values.
The APM measurement of Figure 2 (metric name, value, min, max, timestamp,
duration) maps onto the same five-field layout, which is exactly the
mapping the paper performs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import merge
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator

from repro.keyspace import KEY_LENGTH

__all__ = ["RecordSchema", "APM_SCHEMA", "merge_runs"]


@dataclass(frozen=True)
class RecordSchema:
    """Shape of the benchmark records."""

    key_length: int = KEY_LENGTH
    field_count: int = 5
    field_length: int = 10

    # The schema is immutable, so its derived layout is computed once per
    # instance: the field names are read once per generated record.

    @cached_property
    def field_names(self) -> tuple[str, ...]:
        """The ordered field names (``field0`` ... ``fieldN``)."""
        return tuple(f"field{i}" for i in range(self.field_count))

    @cached_property
    def field_names_length(self) -> int:
        """Characters in all the field names together: a full row's
        column names, which its stored size counts beside its values."""
        return sum(map(len, self.field_names))

    @property
    def raw_record_bytes(self) -> int:
        """Raw payload size of one record: key plus all field values."""
        return self.key_length + self.field_count * self.field_length

    @cached_property
    def raw_value_bytes(self) -> int:
        """Raw payload size of the value fields only (no key)."""
        return self.field_count * self.field_length

    # -- the stored row --------------------------------------------------
    #
    # Every engine holds a record's fields as a *row*: a tuple of the
    # values in ``field_names`` order, ``None`` for a column not written.
    # A five-field row is an 80-byte tuple where a field dict is 184.
    # The generator makes a record as ``(key, row)``; a load, a simulated
    # write and the encodings take that row as it is, and stores and
    # engines hand back the rows they hold.

    @staticmethod
    def overlay(old: tuple, new: tuple) -> tuple:
        """Column-wise upsert: ``new``'s written columns over ``old``."""
        if None not in new:
            return new
        return tuple(old_value if value is None else value
                     for old_value, value in zip(old, new))


#: The paper's data set: 25-byte keys, five 10-byte fields, 75 raw bytes.
APM_SCHEMA = RecordSchema()

_first = itemgetter(0)


def merge_runs(runs: Iterable[Iterable[tuple]]) -> Iterator[tuple[str, list]]:
    """Key-ordered runs of ``(key, value)`` merged lazily: ``(key,
    values)`` in key order, each key's values in the order of the runs.

    The one merge of every read path: an LSM scan's runs and memtable, a
    sharded MySQL scan's legs, a VoltDB scan's sites.
    """
    for key, group in groupby(merge(*runs, key=_first), _first):
        yield key, [value for __, value in group]

