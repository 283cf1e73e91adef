"""The read path against the bodies it replaced (``reference_reads``).

A run probed by one hashed lookup, a B+tree scan taking a leaf's rows by
slice, a cache touch that is one lookup and an LSM scan and record count
over any history must return what the bisect, the row-at-a-time loop,
the two-lookup touch and the per-pass dict returned — and count and
bill what they counted and billed.  (The sharded scan's merge is driven against its
reference in ``tests/stores/test_mysql.py``, where the store is.)
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.disk import PageCache
from repro.storage.btree import BPlusTree
from repro.storage.lsm.engine import LSMConfig, LSMEngine
from repro.storage.lsm.sstable import SSTable, TOMBSTONE, Versioned
from repro.storage.record import merge_runs
from tests.storage.reference_reads import (
    BisectRun,
    TwoLookupPageCache,
    dict_record_count,
    row_at_a_time_scan,
    widening_scan,
)

#: Every other key of a small universe is in a run, so a probe can fall
#: between two entries, below the first and above the last.
UNIVERSE = [f"user{i:03d}" for i in range(60)]

run_keys = st.sets(st.sampled_from(UNIVERSE[1:-1:2]), max_size=29)
probes = st.lists(st.sampled_from(UNIVERSE), max_size=40)


def _cells(keys, tombstones) -> list[tuple[str, Versioned]]:
    return [(key, Versioned(seq, TOMBSTONE if key in tombstones
                            else (key, None, None, None, None)))
            for seq, key in enumerate(sorted(keys), 1)]


@settings(max_examples=200, deadline=None)
@given(keys=run_keys, tombstones=st.sets(st.sampled_from(UNIVERSE[1:-1:2])),
       lookups=probes)
def test_a_run_is_probed_as_the_bisect_probed_it(keys, tombstones, lookups):
    pairs = _cells(keys, tombstones)
    run, reference = SSTable(list(pairs), generation=1), BisectRun(pairs)
    for key in lookups:
        # The same version, by the very row: a read folds it, a merge
        # carries it over.
        version, expected = run.get(key), reference.get(key)
        assert version == expected
        assert version is None or version.value is expected.value
    assert run.reads == reference.reads == len(lookups)
    assert list(run.items()) == list(reference.items()) == pairs
    assert list(run.keys()) == [key for key, __ in pairs]
    assert len(run) == len(pairs)


@settings(max_examples=200, deadline=None)
@given(keys=run_keys, start=st.sampled_from(UNIVERSE),
       count=st.integers(min_value=-1, max_value=35))
def test_a_run_is_scanned_as_the_two_lists_were(keys, start, count):
    pairs = _cells(keys, ())
    run, reference = SSTable(list(pairs), generation=1), BisectRun(pairs)
    assert run.scan(start, count) == reference.scan(start, count)


@settings(max_examples=200, deadline=None)
@given(keys=st.sets(st.integers(min_value=0, max_value=400), max_size=120),
       removed=st.sets(st.integers(min_value=0, max_value=400)),
       start=st.integers(min_value=-5, max_value=420),
       count=st.integers(min_value=-1, max_value=140))
def test_a_tree_is_scanned_as_row_at_a_time_scanned_it(keys, removed, start,
                                                       count):
    """Across leaf boundaries (order 4: a leaf holds two to four rows),
    leaves emptied by lazy deletes, count 0 and past the size, a start
    past the last key: the rows and the pages billed."""
    tree = BPlusTree(order=4)
    for key in sorted(keys, key=lambda k: (k * 7919) % 401):
        tree.put(key, {"field0": str(key)})
    for key in removed:
        tree.remove(key)
    rows, path = tree.scan(start, count)
    expected_rows, expected_path = row_at_a_time_scan(tree, start, count)
    assert rows == expected_rows
    assert all(row is expected for (__, row), (__, expected)
               in zip(rows, expected_rows))
    assert path.page_ids == expected_path.page_ids


@settings(max_examples=200, deadline=None)
@given(capacity_blocks=st.integers(min_value=0, max_value=6),
       touches=st.lists(st.tuples(st.booleans(),
                                  st.integers(min_value=0, max_value=9)),
                        max_size=80))
def test_a_block_is_touched_as_two_lookups_touched_it(capacity_blocks,
                                                      touches):
    cache = PageCache(capacity_blocks * 4096)
    reference = TwoLookupPageCache(capacity_blocks * 4096)
    for is_insert, block in touches:
        if is_insert:
            cache.insert(block)
            reference.insert(block)
        else:
            assert cache.access(block) == reference.access(block)
        # Same residents in the same eviction order.
        assert list(cache._blocks) == list(reference._blocks)
    assert (cache.hits, cache.misses) == (reference.hits, reference.misses)


def test_get_bills_the_blocks_block_of_names_for_every_probed_run():
    """``LSMEngine.get`` writes the block id out in its loop; ``scan``
    and ``iter_blocks`` still call ``_block_of``.  Same tuples, and
    ``sstables_probed`` counts exactly the runs that were consulted."""
    rng = random.Random(0x0B10C)
    for bloom_enabled in (False, True):
        # A run smaller than one block has a single block: ``or 1``.
        for block_size in (256, 1 << 20):
            config = LSMConfig(memtable_flush_bytes=1 << 30,
                               block_size=block_size,
                               bloom_enabled=bloom_enabled,
                               min_compaction_threshold=99)
            engine = LSMEngine(config, name="probe")
            keys = [f"user{rng.randrange(10**6):06d}" for __ in range(600)]
            for i, key in enumerate(keys):
                engine.put(key, ("x" * 10,) * 5)
                if i % 100 == 99:
                    engine.flush()
            assert len(engine.sstables) == 6
            probed = 0
            absent = [f"user{rng.randrange(10**6):06d}" for __ in range(150)]
            for key in keys[::5] + absent + ["", "zzzz"]:
                consulted = [
                    table for table in reversed(engine.sstables)
                    if table.min_key <= key <= table.max_key
                    and (not bloom_enabled
                         or table.bloom.might_contain(key))]
                reads_before = [table.reads for table in consulted]
                bill = engine.get(key).bill
                assert bill.blocks == tuple(
                    engine._block_of(table, key.encode())
                    for table in consulted)
                assert bill.runs_touched == len(consulted)
                assert [table.reads for table in consulted] == [
                    reads + 1 for reads in reads_before]
                probed += len(consulted)
            assert engine.sstables_probed == probed > 0


@settings(max_examples=200, deadline=None)
@given(runs=st.lists(st.lists(st.tuples(st.sampled_from(UNIVERSE[:12]),
                                        st.integers()), max_size=12),
                     max_size=6))
def test_merge_runs_groups_as_a_dict_sorted_by_key(runs):
    """Each key once, in key order, with its values in the order of the
    runs (and within a run, in its order) — what appending every run
    to a dict of lists and sorting its keys gives."""
    runs = [sorted(run, key=lambda pair: pair[0]) for run in runs]
    by_key: dict[str, list[int]] = {}
    for run in runs:
        for key, value in run:
            by_key.setdefault(key, []).append(value)
    expected = [(key, by_key[key]) for key in sorted(by_key)]
    assert list(merge_runs(iter(run) for run in runs)) == expected


#: One engine call each: a write of some columns, a delete, a forced
#: flush, a compaction round.  Every key of the universe's even half can
#: be written, so a scan's start falls on, between and past the keys.
lsm_steps = st.lists(st.one_of(
    st.tuples(st.just("put"), st.sampled_from(UNIVERSE[::2]),
              st.sets(st.integers(min_value=0, max_value=4), min_size=1)),
    st.tuples(st.just("delete"), st.sampled_from(UNIVERSE[::2])),
    st.tuples(st.just("flush")),
    st.tuples(st.just("compact")),
), min_size=20, max_size=120)


def _lsm_after(steps) -> LSMEngine:
    """An engine that lived through ``steps``: a flush every second full
    row, a compaction whenever three runs are alike, 64-byte blocks, so a
    scan reads several runs and bills many blocks."""
    engine = LSMEngine(LSMConfig(memtable_flush_bytes=300, block_size=64,
                                 min_compaction_threshold=3,
                                 max_compaction_threshold=4),
                       name="history")
    for i, step in enumerate(steps):
        if step[0] == "put":
            engine.put(step[1], tuple(f"v{i}-{j}" if j in step[2] else None
                                      for j in range(5)))
        elif step[0] == "delete":
            engine.delete(step[1])
        elif step[0] == "flush":
            engine.flush()
        else:
            engine.maybe_compact()
    return engine


_widened: list[bool] = []


@settings(max_examples=300, deadline=None)
@given(steps=lsm_steps, start=st.sampled_from(UNIVERSE),
       count=st.integers(min_value=1, max_value=12))
def _scan_matches_the_widening_dict(steps, start, count):
    engine = _lsm_after(steps)
    rows, bill, need = widening_scan(engine, start, count)
    got, got_bill = engine.scan(start, count)
    assert got == rows
    assert got_bill.runs_touched == bill.runs_touched
    assert got_bill.blocks == bill.blocks
    assert engine.record_count == dict_record_count(engine)
    _widened.append(need > count)


def test_an_lsm_scan_returns_and_bills_what_the_widening_dict_did():
    """Tombstones and shadowed versions in the first ``count`` entries
    make the scan widen; the search must reach some such histories."""
    _widened.clear()
    _scan_matches_the_widening_dict()
    assert any(_widened)
