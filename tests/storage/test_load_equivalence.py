"""A load builds what ``put`` after ``put`` always built: property tests.

The load paths skip per-row structure nothing reads while a load runs:
the LSM memtable and the Redis scan index sort their keys
(:class:`~repro.storage.sortedkeys.SortedKeys`) at the first scan
instead of keeping them sorted from the first write, and an SSTable
builds its Bloom filter at its first probe.  Each must leave exactly
what the eager structure leaves.  Hypothesis generates the operations:
few keys, so they repeat; partial field maps, so a repeat is a
column-wise upsert; deletes, scans and reads at any point; and flush
thresholds small enough that writes flush and compact as they go.
``tests/stores/load_fingerprint_golden.json`` pins the same state for
whole store loads.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.bloom import BloomFilter
from repro.storage.encoding import redis_memory_per_record
from repro.storage.hashstore import HashStore
from repro.storage.lsm.engine import LSMConfig, LSMEngine
from repro.storage.lsm.sstable import SSTable, Versioned
from tests.rows import row_of

KEYS = st.sampled_from([f"user{i:02d}" for i in range(24)])
#: A row of some written columns: a repeat is a column-wise upsert.
ROWS = st.dictionaries(st.sampled_from([f"field{i}" for i in range(5)]),
                       st.text("abcxyz", max_size=12),
                       min_size=1).map(row_of)
#: A write most of the time; now and then a delete, a scan or a read.
OPS = st.lists(st.one_of(
    st.tuples(st.just("put"), KEYS, ROWS),
    st.tuples(st.just("put"), KEYS, ROWS),
    st.tuples(st.just("put"), KEYS, ROWS),
    st.tuples(st.just("delete"), KEYS),
    st.tuples(st.just("scan"), KEYS, st.integers(1, 8)),
    st.tuples(st.just("get"), KEYS),
), max_size=120)


def _engine_state(engine: LSMEngine) -> dict:
    """Everything a later read, write, flush or crash can observe; sorts
    the memtable's keys if nothing scanned it yet."""
    log = engine.commit_log
    return {
        "runs": [(table.generation, table.size_bytes, table.min_key,
                  table.max_key,
                  [(key, cell.seq, cell.value) for key, cell in table.items()],
                  table.bloom.n_bits, table.bloom.n_hashes,
                  table.bloom.n_items, bytes(table.bloom._bits))
                 for table in engine.sstables],
        "wal": (log.appended_entries, log.appended_bytes, log.syncs,
                log.pending_ops, log._unsynced_bytes,
                [(s.index, s.size_bytes, s.entries, s.dirty)
                 for s in log.segments]),
        "wal_records": engine._wal_records,
        "seq": engine._seq,
        "writes": engine.writes,
        "flushes": engine.flushes,
        "generations": engine._generations,
        "compactions": engine.compaction.compactions_run,
        "memtable": (engine.memtable.size_bytes, len(engine.memtable),
                     [(key, cell.seq, cell.value)
                      for key, cell in engine.memtable.ordered().items()]),
    }


def _apply(engine: LSMEngine, op: tuple):
    """Run one generated operation; what a caller would see of it."""
    kind, key, *rest = op
    if kind == "put":
        return engine.put(key, rest[0])
    if kind == "delete":
        return engine.delete(key)
    if kind == "scan":
        return engine.scan(key, rest[0])
    return engine.get(key)


@settings(max_examples=150, deadline=None)
@given(ops=OPS,
       flush_bytes=st.integers(60, 3000),
       group_commit=st.integers(1, 8),
       min_threshold=st.integers(2, 4))
def test_an_lsm_memtable_linked_late_is_one_linked_at_every_write(
        ops, flush_bytes, group_commit, min_threshold):
    """``eager`` sorts each memtable's keys as it starts, so every new
    key is inserted in order; ``lazy`` sorts them only at its first
    scan, and a load's never."""
    config = LSMConfig(memtable_flush_bytes=flush_bytes,
                       group_commit_ops=group_commit,
                       min_compaction_threshold=min_threshold)
    eager = LSMEngine(config)
    lazy = LSMEngine(config)
    eager.memtable.ordered()
    for op in ops:
        assert _apply(lazy, op) == _apply(eager, op), op
        eager.memtable.ordered()  # a flush starts a fresh memtable
    assert _engine_state(lazy) == _engine_state(eager)
    for engine in (eager, lazy):
        engine.flush()
        engine.maybe_compact()
    assert _engine_state(lazy) == _engine_state(eager)


def test_a_load_links_no_memtable():
    engine = LSMEngine(LSMConfig(memtable_flush_bytes=400))
    for i in range(40):
        engine.put(f"user{i:02d}", ("v" * 10, None, None, None, None))
    assert engine.flushes and engine.memtable._ordered is None
    assert engine.scan("user00", 3)[0][0][0] == "user00"
    assert engine.memtable._ordered is not None


def _redis(store: HashStore, op: tuple):
    kind, key, *rest = op
    if kind == "put":
        return store.hset(key, rest[0])
    if kind == "delete":
        return store.delete(key)
    if kind == "scan":
        return store.scan(key, rest[0])
    return store.hgetall(key)


@settings(max_examples=150, deadline=None)
@given(ops=OPS, room=st.integers(0, 30))
def test_a_redis_index_linked_late_is_one_linked_at_every_hset(ops, room):
    """Including the refusals once the memory wall is reached, and the
    deletes before the first scan, which touch no index."""
    limit = int(room * redis_memory_per_record())
    eager = HashStore(max_memory_bytes=limit)
    lazy = HashStore(max_memory_bytes=limit)
    eager.index()
    for op in ops:
        assert _redis(lazy, op) == _redis(eager, op), op
    assert lazy.oom_errors == eager.oom_errors
    assert list(lazy._hashes.items()) == list(eager._hashes.items())
    assert (list(lazy.index().items()) == list(eager.index().items())
            == sorted(eager._hashes.items()))


@settings(max_examples=100, deadline=None)
@given(keys=st.lists(st.text("abcdefgh", min_size=1, max_size=10),
                     unique=True, max_size=300),
       fp_rate=st.sampled_from([0.001, 0.01, 0.1]))
def test_a_lazy_filter_has_the_bits_of_an_eager_one(keys, fp_rate):
    keys.sort()
    table = SSTable([(key, Versioned(1, (key,) * 5)) for key in keys],
                    bloom_fp_rate=fp_rate, generation=1)
    eager = BloomFilter(max(1, len(keys)), fp_rate)
    eager.add_all(keys)
    lazy = table.bloom
    assert (lazy.n_bits, lazy.n_hashes, lazy.n_items) == (
        eager.n_bits, eager.n_hashes, eager.n_items)
    assert lazy._bits == eager._bits
    assert table.bloom is lazy  # built once


def _built_filters(engine: LSMEngine) -> list[bool]:
    return ["bloom" in vars(table) for table in engine.sstables]


@pytest.mark.parametrize("bloom_enabled", [True, False])
def test_only_a_probed_run_builds_its_filter(bloom_enabled):
    engine = LSMEngine(LSMConfig(memtable_flush_bytes=400,
                                 min_compaction_threshold=2,
                                 bloom_enabled=bloom_enabled))
    for i in range(40):
        engine.put(f"user{i:02d}", ("v" * 10, None, None, None, None))
    engine.flush()
    assert engine.compaction.compactions_run  # runs were merged away
    assert not any(_built_filters(engine))
    assert engine.get("user07").row == ("v" * 10, None, None, None, None)
    # A read probes the filters only where the engine has them on.
    assert any(_built_filters(engine)) is bloom_enabled
