"""The benchmark record model.

Section 3: "Our data set consists of records with a single alphanumeric key
with a length of 25 bytes and 5 value fields each with 10 bytes.  Thus, a
single record has a raw size of 75 bytes."

A :class:`RecordSchema` captures that shape and the stored row, a tuple
of field values; :class:`Record`, a key with named field values, is the
form the on-disk encodings take.
The APM measurement of Figure 2 (metric name, value, min, max, timestamp,
duration) maps onto the same five-field layout, which is exactly the
mapping the paper performs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from heapq import merge
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping

__all__ = ["RecordSchema", "Record", "APM_SCHEMA", "merge_runs"]


@dataclass(frozen=True)
class RecordSchema:
    """Shape of the benchmark records."""

    key_length: int = 25
    field_count: int = 5
    field_length: int = 10
    field_prefix: str = "field"

    # The schema is immutable, so its derived layout is computed once per
    # instance: the field names are read once per generated record.

    @cached_property
    def field_names(self) -> tuple[str, ...]:
        """The ordered field names (``field0`` ... ``fieldN``)."""
        return tuple(f"{self.field_prefix}{i}" for i in range(self.field_count))

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
    # A loaded record is generated as a row; a write's mapping becomes
    # one once, where it enters a store (``StoreSession._dispatch``).
    # Stores and engines take rows and hand them back as they hold them;
    # the one dict made of a row is the field map a simulated write
    # carries (``draw_operation``).

    @cached_property
    def _full_row(self) -> Callable[[Mapping[str, str]], tuple]:
        """A mapping holding every field as its row, in one call
        (``KeyError`` when a field is missing)."""
        get = itemgetter(*self.field_names)
        return get if self.field_count > 1 else lambda fields: (get(fields),)

    def to_row(self, fields: Mapping[str, str]) -> tuple:
        """``fields`` as a row; ``ValueError`` for a column not named.

        A ``None`` value is a column not written.
        """
        if len(fields) == self.field_count:
            try:
                return self._full_row(fields)
            except KeyError:  # as many columns, but not all of them ours
                pass
        unknown = set(fields).difference(self.field_names)
        if unknown:
            raise ValueError(
                f"fields {sorted(unknown)} are not in the schema's "
                f"{list(self.field_names)}")
        return tuple(map(fields.get, self.field_names))

    def row_fields(self, row: tuple) -> dict[str, str]:
        """The fresh field dict of ``row``: its written columns."""
        if None in row:
            return {name: value for name, value in zip(self.field_names, row)
                    if value is not None}
        return dict(zip(self.field_names, row))

    @staticmethod
    def overlay(old: tuple, new: tuple) -> tuple:
        """Column-wise upsert: ``new``'s written columns over ``old``."""
        if None not in new:
            return new
        return tuple(old_value if value is None else value
                     for old_value, value in zip(old, new))

    def validate(self, record: "Record") -> None:
        """Raise ``ValueError`` if ``record`` does not match this schema."""
        if len(record.key) != self.key_length:
            raise ValueError(
                f"key {record.key!r} has length {len(record.key)}, "
                f"schema requires {self.key_length}"
            )
        if set(record.fields) != set(self.field_names):
            raise ValueError(
                f"record fields {sorted(record.fields)} do not match "
                f"schema fields {sorted(self.field_names)}"
            )
        for name, value in record.fields.items():
            if len(value) != self.field_length:
                raise ValueError(
                    f"field {name} has length {len(value)}, schema "
                    f"requires {self.field_length}"
                )


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


@dataclass(frozen=True)
class Record:
    """One benchmark record as the encodings take it: a key plus named
    field values."""

    key: str
    fields: Mapping[str, str] = field(default_factory=dict)
