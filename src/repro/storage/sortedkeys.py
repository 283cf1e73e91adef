"""The key order of a dict: the ordered index of memtables, Redis and VoltDB.

Cassandra's memtable is a concurrent skip list, Redis's zset a skip list
and VoltDB's primary key a tree; what the models read of any of them is
the keys in order.  :class:`SortedKeys` keeps that order over the dict
its owner already holds: the keys are sorted once when the owner makes
the index (at its first ordered read), and ``bisect`` keeps the list
sorted through later inserts and deletes.  Nothing in it is random, so
an index made late holds exactly what one made at the first write would.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any, Iterator

__all__ = ["SortedKeys"]


class SortedKeys:
    """The keys of ``rows`` in key order.

    The owner tells the index of every key that joins (:meth:`add`) or
    leaves (:meth:`remove`) ``rows``; values are read from ``rows`` when
    a scan returns them, so an upsert needs no call.
    """

    __slots__ = ("_rows", "_keys")

    def __init__(self, rows: dict):
        self._rows = rows
        self._keys = sorted(rows)

    def add(self, key: Any) -> None:
        """Index ``key``, new to ``rows``."""
        insort(self._keys, key)

    def remove(self, key: Any) -> None:
        """Unindex ``key``, gone from ``rows``."""
        keys = self._keys
        del keys[bisect_left(keys, key)]

    def keys_from(self, start_key: Any, count: int) -> list:
        """Up to ``count`` keys ``>= start_key``, in key order."""
        if count <= 0:
            return []
        keys = self._keys
        start = bisect_left(keys, start_key)
        return keys[start:start + count]

    def scan(self, start_key: Any, count: int) -> list[tuple[Any, Any]]:
        """Up to ``count`` ``(key, value)`` pairs with ``key >= start_key``,
        in key order."""
        rows = self._rows
        return [(key, rows[key]) for key in self.keys_from(start_key, count)]

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All ``(key, value)`` pairs in key order."""
        rows = self._rows
        return ((key, rows[key]) for key in self._keys)
