"""The read path as it was written before a read's way out was costed.

Six bodies were replaced where they stood, not forked: a run was
looked up by bisecting its sorted key list (two parallel lists, ~17
string compares a probe), a B+tree scan appended its rows one at a time,
the page cache found a block with ``in`` and touched it with a second
lookup, every leg of a sharded MySQL scan copied the rows the client
then threw three quarters of away (and the client sorted ``(key, row)``
tuples, which compares two rows when two legs stream one key), an LSM
scan collected its runs' chunks in a dict it sorted a pass, and the LSM
record count folded a second dict over every run.  They
live on here as *reference implementations* (the method of
``tests/sim/reference_scheduler.py`` and
``tests/stores/reference_fanouts.py``):
``tests/storage/test_read_path_differential.py`` drives them and the
code in ``src/`` over the same inputs and compares results and counters.

They lean only on what the structures are: a run's ``items()``, a
tree's ``_descend`` and linked leaves, the cache's ``_blocks`` order, an
engine's runs, memtable and ``_block_of``.
"""

from bisect import bisect_left
from typing import Any, Optional

from repro.sim.disk import PageCache
from repro.storage.btree import BPlusTree, TreePath
from repro.storage.lsm.engine import IoBill
from repro.storage.lsm.sstable import TOMBSTONE, Versioned, resolve_versions


class BisectRun:
    """``SSTable``'s lookup over two parallel lists, bisected."""

    def __init__(self, pairs):
        self._keys = [key for key, __ in pairs]
        self._values = [value for __, value in pairs]
        self.reads = 0

    def get(self, key):
        self.reads += 1
        index = bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            return self._values[index]
        return None

    def scan(self, start_key, count):
        index = bisect_left(self._keys, start_key)
        stop = min(len(self._keys), index + max(0, count))
        return list(zip(self._keys[index:stop], self._values[index:stop]))

    def items(self):
        return iter(zip(self._keys, self._values))


def row_at_a_time_scan(tree: BPlusTree, start_key: Any, count: int):
    """``BPlusTree.scan``, one ``append`` and two ``len`` a row."""
    leaf, path, __ = tree._descend(start_key)
    pages = list(path)
    out: list[tuple[Any, Any]] = []
    index = bisect_left(leaf.keys, start_key)
    node: Optional[Any] = leaf
    while node is not None and len(out) < count:
        while index < len(node.keys) and len(out) < count:
            out.append((node.keys[index], node.values[index]))
            index += 1
        node = node.next
        index = 0
        if node is not None and len(out) < count:
            pages.append(node.page_id)
    return out, TreePath(tuple(pages))


class TwoLookupPageCache(PageCache):
    """``PageCache.access`` finding a block, then touching it."""

    def access(self, block_id: object) -> bool:
        if self.capacity_blocks == 0:
            self.misses += 1
            return False
        if block_id in self._blocks:
            self._blocks.move_to_end(block_id)
            self.hits += 1
            return True
        self.misses += 1
        self._blocks[block_id] = None
        while len(self._blocks) > self.capacity_blocks:
            self._blocks.popitem(last=False)
        return False


def copy_per_leg_merge(legs, count: int):
    """The sharded scan's client merge over legs that each copied their
    rows: ``legs`` are the ``rows`` the shards' trees returned."""
    merged = []
    for rows in legs:
        merged.extend([(k, dict(v)) for k, v in rows])
    merged.sort()
    return merged[:count]


def widening_scan(engine, start_key: str, count: int):
    """``LSMEngine.scan`` as a per-pass dict: every run's chunk collected
    by key, the keys sorted, the frontier (the smallest last key of a
    full chunk) kept by hand, and ``need`` doubled until ``count`` live
    rows survive.  Returns the rows, the bill and the final ``need``."""
    need = count
    while True:
        by_key: dict[str, list[Versioned]] = {}
        sources = 0
        blocks: list[tuple] = []
        frontier: Optional[str] = None
        for table in engine.sstables:
            chunk = table.scan(start_key, need)
            if chunk:
                sources += 1
                for key, versioned in chunk:
                    blocks.append(engine._block_of(table, key.encode()))
                    by_key.setdefault(key, []).append(versioned)
                if len(chunk) == need:
                    last = chunk[-1][0]
                    frontier = (last if frontier is None
                                else min(frontier, last))
        mem_chunk = list(engine.memtable.scan(start_key, need))
        for key, versioned in mem_chunk:
            by_key.setdefault(key, []).append(versioned)
        if len(mem_chunk) == need:
            last = mem_chunk[-1][0]
            frontier = last if frontier is None else min(frontier, last)
        live: list[tuple[str, tuple]] = []
        for key in sorted(by_key):
            if frontier is not None and key > frontier:
                break
            versions = by_key[key]
            resolved = (versions[0] if len(versions) == 1
                        else resolve_versions(versions))
            if resolved.value is not TOMBSTONE:
                live.append((key, resolved.value))
            if len(live) == count:
                break
        if len(live) >= count or frontier is None:
            bill = IoBill(runs_touched=sources, blocks=tuple(blocks))
            return live, bill, need
        need *= 2


def dict_record_count(engine) -> int:
    """``LSMEngine.record_count`` as a dict of every run's versions by
    key, each key folded and counted unless it folds to a tombstone."""
    by_key: dict[str, list[Versioned]] = {}
    for table in engine.sstables:
        for key, versioned in table.items():
            by_key.setdefault(key, []).append(versioned)
    for key, versioned in engine.memtable.sorted_items():
        by_key.setdefault(key, []).append(versioned)
    return sum(
        1 for versions in by_key.values()
        if resolve_versions(versions).value is not TOMBSTONE
    )
