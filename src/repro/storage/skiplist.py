"""A skip list: the sorted map behind the LSM memtable.

Cassandra's memtable is a concurrent skip list; we implement the classic
Pugh structure with geometric level promotion.  It supports point get/put,
deletion, in-order iteration, and bounded range scans — everything the
memtable and the Redis sorted-set model need.

Determinism: the level generator is seeded per instance so simulations are
bit-for-bit reproducible.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Iterator, Optional

__all__ = ["SkipList"]

_MAX_LEVEL = 32
_P = 0.25


class _SkipNode:
    __slots__ = ("key", "value", "forward")

    def __init__(self, key: Any, value: Any, level: int):
        self.key = key
        self.value = value
        self.forward: list[Optional["_SkipNode"]] = [None] * level


class SkipList:
    """A sorted map with expected O(log n) search/insert."""

    def __init__(self, seed: int = 0):
        self._head = _SkipNode(None, None, _MAX_LEVEL)
        self._level = 1
        self._size = 0
        self._rng = random.Random(seed)

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: Any) -> bool:
        return self.get(key, default=_MISSING) is not _MISSING

    def _random_level(self) -> int:
        level = 1
        while level < _MAX_LEVEL and self._rng.random() < _P:
            level += 1
        return level

    def _find_predecessors(self, key: Any) -> list[_SkipNode]:
        # The hot loop of every load: one attribute read per node
        # visited (its key) and one per node stepped onto (its tower,
        # held in a local across the level changes).
        node = self._head
        update = [node] * _MAX_LEVEL
        forward = node.forward
        for level in range(self._level - 1, -1, -1):
            following = forward[level]
            while following is not None and following.key < key:
                node = following
                forward = following.forward
                following = forward[level]
            update[level] = node
        return update

    def put(self, key: Any, value: Any) -> bool:
        """Insert or update; returns ``True`` if the key was new."""
        update = self._find_predecessors(key)
        node = update[0].forward[0]
        if node is not None and node.key == key:
            node.value = value
            return False
        self._link(update, key, value)
        return True

    def setdefault(self, key: Any, value: Any) -> Any:
        """The value under ``key``, inserting ``value`` first if absent.

        ``dict.setdefault`` for the sorted map: an insert-unless-present
        in a single descent.
        """
        update = self._find_predecessors(key)
        node = update[0].forward[0]
        if node is not None and node.key == key:
            return node.value
        self._link(update, key, value)
        return value

    def put_all(self, pairs: Iterable[tuple[Any, Any]]) -> None:
        """``put`` each of ``pairs`` in turn, into an empty list.

        Each new key draws its tower when it arrives, as ``put`` would,
        and a repeated key only updates its value, so the list ends with
        the towers ``put`` leaves; one sort and one left-to-right pass
        then link every level, instead of one descent a pair.
        """
        if self._size:
            raise ValueError("put_all links into an empty skip list")
        nodes: dict[Any, _SkipNode] = {}
        random_level = self._random_level
        for key, value in pairs:
            node = nodes.get(key)
            if node is None:
                nodes[key] = _SkipNode(key, value, random_level())
            else:
                node.value = value
        # The last node linked at each level, the next one's predecessor.
        tails = [self._head] * _MAX_LEVEL
        for key in sorted(nodes):
            node = nodes[key]
            height = len(node.forward)
            for level in range(height):
                tails[level].forward[level] = node
                tails[level] = node
            if height > self._level:
                self._level = height
        self._size = len(nodes)

    def _link(self, update: list[_SkipNode], key: Any, value: Any) -> None:
        level = self._random_level()
        if level > self._level:
            self._level = level
        new_node = _SkipNode(key, value, level)
        for i in range(level):
            new_node.forward[i] = update[i].forward[i]
            update[i].forward[i] = new_node
        self._size += 1

    def get(self, key: Any, default: Any = None) -> Any:
        """Return the value for ``key`` or ``default``."""
        node = self._find_predecessors(key)[0].forward[0]
        if node is not None and node.key == key:
            return node.value
        return default

    def remove(self, key: Any) -> bool:
        """Delete ``key``; returns ``True`` if it was present."""
        update = self._find_predecessors(key)
        node = update[0].forward[0]
        if node is None or node.key != key:
            return False
        for i in range(self._level):
            if update[i].forward[i] is not node:
                break
            update[i].forward[i] = node.forward[i]
        while self._level > 1 and self._head.forward[self._level - 1] is None:
            self._level -= 1
        self._size -= 1
        return True

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All ``(key, value)`` pairs in key order."""
        node = self._head.forward[0]
        while node is not None:
            yield node.key, node.value
            node = node.forward[0]

    def scan(self, start_key: Any, count: int) -> list[tuple[Any, Any]]:
        """Up to ``count`` pairs with ``key >= start_key``, in key order."""
        if count <= 0:
            return []
        node = self._find_predecessors(start_key)[0].forward[0]
        out: list[tuple[Any, Any]] = []
        while node is not None and len(out) < count:
            out.append((node.key, node.value))
            node = node.forward[0]
        return out

    def first_key(self) -> Any:
        """Smallest key, or ``None`` when empty."""
        node = self._head.forward[0]
        return node.key if node is not None else None

    def last_key(self) -> Any:
        """Largest key, or ``None`` when empty (O(n))."""
        node = self._head
        for level in range(self._level - 1, -1, -1):
            while node.forward[level] is not None:
                node = node.forward[level]
        return node.key if node is not self._head else None


_MISSING = object()
