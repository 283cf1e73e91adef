"""What the load phase leaves behind, pinned store by store.

``Store.load`` is ``put`` after ``put`` (``hset`` on Redis; a dict
assignment into its partition on VoltDB), but skips structure nothing
reads during a load: memtables, Redis indexes and VoltDB partitions sort
their keys at the first scan, runs build their Bloom filters at the
first probe.  What it leaves — LSM runs with their commit-log
accounting, flushes and compactions, the keys of every Redis shard and
VoltDB partition, B+tree pages — is what every simulated read afterwards
sees, so its cost may be optimised but its *result* must not move.  The
store fingerprints were taken at the commit before the single-pass
ingestion clean-up (v1.7.0), the LSM sequence and commit-log fields and
the ``SHAPES`` at the commit before the lazy skip lists and filters
(v1.8.0); all depend only on keys and field *lengths* — the record
generator's field content is free to change.

The two LSM stores load enough records (17 000) for the load's own
flush rounds and its minor compaction to be part of the pin; the others
load 2 000.  Regenerate after an *intentional* change of the post-load
state with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/stores/test_load_fingerprint.py
"""

import json
import zlib
from dataclasses import replace
from pathlib import Path

import pytest

from repro.sim.cluster import CLUSTER_M, Cluster
from repro.storage import btree
from repro.storage.lsm import LSMConfig
from repro.stores.registry import STORE_NAMES, create_store
from repro.ycsb.generator import generate_records

from tests.goldens import check_golden

GOLDEN_PATH = Path(__file__).parent / "load_fingerprint_golden.json"

RECORDS = {"cassandra": 17_000, "hbase": 17_000}
DEFAULT_RECORDS = 2_000


def _crc(values) -> int:
    return zlib.crc32(repr(list(values)).encode())


def _sorted_keys(keys: list) -> dict:
    """Length and key order."""
    return {"len": len(keys), "keys_crc": _crc(keys)}


def _engine(engine) -> dict:
    log = engine.commit_log
    return {
        "sstables": [
            {"generation": table.generation, "len": len(table),
             "size_bytes": table.size_bytes,
             "keys_crc": _crc(key for key, __ in table.items()),
             "seqs_crc": _crc(v.seq for __, v in table.items()),
             "bloom_bits": table.bloom.n_bits,
             "bloom_items": table.bloom.n_items,
             "bloom_crc": zlib.crc32(bytes(table.bloom._bits))}
            for table in engine.sstables
        ],
        "memtable_size_bytes": engine.memtable.size_bytes,
        "memtable_len": len(engine.memtable),
        "seq": engine._seq,
        "wal_appended_entries": log.appended_entries,
        "wal_segments": [[segment.index, segment.size_bytes,
                          segment.entries, segment.dirty]
                         for segment in log.segments],
        "wal_appended_bytes": log.appended_bytes,
        "wal_syncs": log.syncs,
        "wal_total_bytes": log.total_bytes,
        "flushes": engine.flushes,
        "compactions": engine.compaction.compactions_run,
        "writes": engine.writes,
        "disk_bytes": engine.disk_bytes,
    }


def _tree(tree) -> dict:
    page_ids = list(tree.leaf_page_ids())
    return {"len": len(tree), "leaf_pages": len(page_ids),
            "leaf_page_ids_crc": _crc(page_ids),
            "keys_crc": _crc(key for key, __ in tree.items())}


def _engines_of(store) -> dict:
    name = store.name
    if name == "cassandra":
        return {"engines": [_engine(e) for e in store.engines]}
    if name == "hbase":
        return {"engines": [_engine(store.engine_of(rid))
                            for rid in range(store.n_regions)]}
    if name == "mysql":
        return {"trees": [_tree(t) for t in store.tables],
                "binlog_bytes": list(store.binlog_bytes)}
    if name == "voldemort":
        return {"trees": [_tree(t) for t in store.trees],
                "log_bytes": list(store.log_bytes)}
    if name == "redis":
        return {"shards": [{"len": len(shard),
                            "used_memory_bytes": shard.used_memory_bytes,
                            "index": _sorted_keys(
                                [key for key, __ in shard.index().items()])}
                           for shard in store.shards],
                "errors": store.errors}
    if name == "voltdb":
        return {"partitions": [_sorted_keys(sorted(table)) for __, table
                               in sorted(store.partitions.items())]}
    raise AssertionError(f"no fingerprint for store {name!r}")


def fingerprint(store_name: str, n_nodes: int = 2, records: int = 0,
                spec=CLUSTER_M, **store_kwargs) -> dict:
    """Load the store on ``n_nodes`` nodes of ``spec`` and describe its
    state."""
    store = create_store(store_name, Cluster(spec, n_nodes), **store_kwargs)
    store.load(generate_records(
        records or RECORDS.get(store_name, DEFAULT_RECORDS)))
    out = _engines_of(store)
    out["disk_bytes_per_server"] = list(store.disk_bytes_per_server())
    return out


#: Room for about 1 000 records a Redis shard (``redis_memory_per_record``
#: is 894 bytes), so loading 3 000 over two shards runs into the wall.
_SMALL_RAM = replace(CLUSTER_M,
                     node=replace(CLUSTER_M.node, ram_bytes=1_285_000))

#: Load shapes beyond one store's defaults:
#:
#: * ``cassandra-rf3`` puts every record into three engines, across a
#:   round boundary;
#: * ``cassandra-small-memtable`` crosses the memtable threshold about
#:   six times a round, so flushes and a compaction fire inside a round;
#: * ``redis-oom`` loads past the shards' memory, refusing inserts.
SHAPES = {
    "cassandra-rf3": dict(store_name="cassandra", n_nodes=3, records=6_000,
                          replication_factor=3),
    "cassandra-small-memtable": dict(
        store_name="cassandra", records=6_000,
        lsm_config=LSMConfig(memtable_flush_bytes=64 * 2**10)),
    "redis-oom": dict(store_name="redis", records=3_000, spec=_SMALL_RAM),
}


@pytest.fixture(autouse=True)
def fresh_page_ids(monkeypatch):
    # B+tree page ids come from a process-global counter.
    monkeypatch.setattr(btree, "_next_page_id", 0)


@pytest.mark.parametrize("store_name", STORE_NAMES)
def test_post_load_state_matches_parent_commit(store_name):
    check_golden(GOLDEN_PATH, (store_name,), fingerprint(store_name),
                 indent=1)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_load_shape_matches_parent_commit(shape):
    check_golden(GOLDEN_PATH, (shape,), fingerprint(**SHAPES[shape]),
                 indent=1)


def test_lsm_load_pins_flushes_and_a_compaction():
    """The pin must cover the paths the clean-up touched, not skip them."""
    golden = json.loads(GOLDEN_PATH.read_text())
    for store_name in ("cassandra", "hbase"):
        engines = golden[store_name]["engines"]
        assert all(e["flushes"] >= 4 for e in engines)
        assert any(e["compactions"] >= 1 for e in engines)


def test_extra_shapes_pin_what_they_are_named_for():
    golden = json.loads(GOLDEN_PATH.read_text())
    # Every record is in all three engines.
    assert all(e["writes"] == 6_000
               for e in golden["cassandra-rf3"]["engines"])
    # Two load rounds, many more flushes: most fired inside a round,
    # and so did the compactions they ripened.
    for engine in golden["cassandra-small-memtable"]["engines"]:
        assert engine["flushes"] > 8
        assert engine["compactions"] >= 2
    assert golden["redis-oom"]["errors"] > 0
