"""A B+tree storage engine.

The update-in-place engine behind the Voldemort (BerkeleyDB JE) and MySQL
(InnoDB) models: a clustered B+tree whose leaves hold the records and are
linked for range scans.  The tree reports the *page path* each operation
touches, which the store layer feeds through the page-cache model — the
mechanism that separates the Cluster M (all pages cached) and Cluster D
(leaf reads miss) regimes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Iterator, Optional

__all__ = ["BPlusTree", "TreePath"]


_next_page_id = 0


def _new_page_id() -> int:
    global _next_page_id
    _next_page_id += 1
    return _next_page_id


class _Leaf:
    __slots__ = ("page_id", "keys", "values", "next")

    def __init__(self):
        self.page_id = _new_page_id()
        self.keys: list[Any] = []
        self.values: list[Any] = []
        self.next: Optional["_Leaf"] = None


class _Internal:
    __slots__ = ("page_id", "keys", "children")

    def __init__(self):
        self.page_id = _new_page_id()
        self.keys: list[Any] = []
        self.children: list[Any] = []


@dataclass
class TreePath:
    """Pages an operation descended through (root ... leaf)."""

    page_ids: tuple[int, ...]

    @property
    def depth(self) -> int:
        """Number of pages on the path."""
        return len(self.page_ids)


class BPlusTree:
    """An order-``order`` B+tree with linked leaves."""

    def __init__(self, order: int = 64):
        if order < 4:
            raise ValueError("order must be at least 4")
        self.order = order
        self._root: Any = _Leaf()
        self._size = 0
        self.height = 1
        self.n_leaves = 1
        self.n_internal = 0

    def __len__(self) -> int:
        return self._size

    @property
    def n_pages(self) -> int:
        """Total pages (leaves + internal nodes)."""
        return self.n_leaves + self.n_internal

    # -- search ---------------------------------------------------------------

    def _descend(self, key: Any) -> tuple[_Leaf, list[int], list[_Internal]]:
        # Every leaf sits ``height - 1`` internal nodes below the root
        # (splits grow the tree at the root; deletes never rebalance).
        node = self._root
        path: list[int] = []
        parents: list[_Internal] = []
        for __ in range(self.height - 1):
            path.append(node.page_id)
            parents.append(node)
            node = node.children[bisect_right(node.keys, key)]
        path.append(node.page_id)
        return node, path, parents

    def get(self, key: Any) -> tuple[Optional[Any], TreePath]:
        """Point lookup; returns ``(value_or_None, pages_touched)``."""
        leaf, path, __ = self._descend(key)
        index = bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.values[index], TreePath(tuple(path))
        return None, TreePath(tuple(path))

    def scan(self, start_key: Any, count: int) -> tuple[
            list[tuple[Any, Any]], TreePath]:
        """Up to ``count`` pairs with key >= ``start_key``, leaf-linked."""
        node, pages, __ = self._descend(start_key)
        out: list[tuple[Any, Any]] = []
        index = bisect_left(node.keys, start_key)
        need = count
        while need > 0:
            # A leaf's share of the rows is one slice of it.
            keys = node.keys[index:index + need]
            out.extend(zip(keys, node.values[index:index + need]))
            need -= len(keys)
            node, index = node.next, 0
            if node is None:
                break
            if need > 0:
                pages.append(node.page_id)
        return out, TreePath(tuple(pages))

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All pairs in key order."""
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        while node is not None:
            yield from zip(node.keys, node.values)
            node = node.next

    def leaf_page_ids(self) -> Iterator[int]:
        """Page ids of all leaves, left to right (cache warm-up)."""
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        while node is not None:
            yield node.page_id
            node = node.next

    # -- insert ---------------------------------------------------------------

    def put(self, key: Any, value: Any) -> tuple[bool, TreePath]:
        """Insert or update; returns ``(was_new, pages_touched)``."""
        leaf, path, parents = self._descend(key)
        keys = leaf.keys
        index = bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            leaf.values[index] = value
            return False, TreePath(tuple(path))
        keys.insert(index, key)
        leaf.values.insert(index, value)
        self._size += 1
        if len(keys) > self.order:
            self._split_leaf(leaf, parents)
        return True, TreePath(tuple(path))

    def _split_leaf(self, leaf: _Leaf, parents: list[_Internal]) -> None:
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        right.next = leaf.next
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        leaf.next = right
        self.n_leaves += 1
        self._insert_into_parent(leaf, right.keys[0], right, parents)

    def _insert_into_parent(self, left: Any, key: Any, right: Any,
                            parents: list[_Internal]) -> None:
        if not parents:
            root = _Internal()
            root.keys = [key]
            root.children = [left, right]
            self._root = root
            self.n_internal += 1
            self.height += 1
            return
        parent = parents[-1]
        index = bisect_right(parent.keys, key)
        parent.keys.insert(index, key)
        parent.children.insert(index + 1, right)
        if len(parent.keys) > self.order:
            self._split_internal(parent, parents[:-1])

    def _split_internal(self, node: _Internal,
                        parents: list[_Internal]) -> None:
        mid = len(node.keys) // 2
        promote = node.keys[mid]
        right = _Internal()
        right.keys = node.keys[mid + 1:]
        right.children = node.children[mid + 1:]
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
        self.n_internal += 1
        self._insert_into_parent(node, promote, right, parents)

    # -- delete ---------------------------------------------------------------

    def remove(self, key: Any) -> tuple[bool, TreePath]:
        """Delete ``key`` if present (lazy: no rebalancing, like JE).

        Returns ``(was_present, pages_touched)``.
        """
        leaf, path, __ = self._descend(key)
        index = bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            leaf.keys.pop(index)
            leaf.values.pop(index)
            self._size -= 1
            return True, TreePath(tuple(path))
        return False, TreePath(tuple(path))
