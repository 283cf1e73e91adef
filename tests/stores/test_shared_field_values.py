"""A loaded store holds rows, and field values by reference to the table.

The record generator draws every field value from one table of 256
strings per field length, and every engine keeps a record's fields as a
*row* — the tuple of its values in ``field_names`` order — never the
strings in them copied, so however many records a store holds, the
values it keeps are at most 256 distinct objects per length.  That is
what a loaded record's memory is made of, so this file keeps it: it
loads each store, walks what its engines hold and checks each held row's
shape and the distinct value objects.  A decode, re-encode, format or
concatenation of a value anywhere on the way in mints a string per
record again and fails here; so does an engine that keeps a field dict
(184 bytes for five fields) where a row (an 80-byte tuple) would do,
which the bytes-held ceilings catch.
"""

import gc
import tracemalloc
from collections import defaultdict

import pytest

from repro.sim.cluster import CLUSTER_M, Cluster
from repro.stores.registry import STORE_NAMES, create_store
from repro.ycsb.generator import generate_record, generate_records

#: Three load rounds: each LSM engine holds three runs.
RECORDS = 9_000

#: Bytes ``tracemalloc`` sees held per loaded record (9 000 records on
#: two Cluster M nodes), with about 30 bytes of room over what a row
#: store holds under CPython 3.11: Cassandra 197, HBase 197, VoltDB 189,
#: Voldemort 223, Redis 177, MySQL 175.  Keeping a five-field dict per
#: record instead holds 104 bytes more on every store (301, 301, 293,
#: 327, 281, 279), past each ceiling; so does an LSM run that keeps a
#: ``Versioned`` cell and a sequence-number int an entry instead of its
#: row and sequence-number columns (267, 266).  CPython 3.10 holds 11-14
#: bytes a record more than 3.11 on the LSM stores, 3.12 8 bytes fewer.
HELD_BYTES_CEILING = {
    "cassandra": 230,
    "hbase": 230,
    "voltdb": 230,
    "voldemort": 255,
    "redis": 210,
    "mysql": 210,
}


def _held_rows(store):
    """Every row the store's engines hold, old versions included."""
    name = store.name
    if name in ("cassandra", "hbase"):
        engines = (store.engines if name == "cassandra" else
                   [store.engine_of(rid) for rid in range(store.n_regions)])
        for engine in engines:
            for table in engine.sstables:
                for __, versioned in table.items():
                    yield versioned.value
            for __, versioned in engine.memtable.sorted_items():
                yield versioned.value
    elif name in ("mysql", "voldemort"):
        for tree in (store.tables if name == "mysql" else store.trees):
            for __, row in tree.items():
                yield row
    elif name == "redis":
        for shard in store.shards:
            yield from shard._hashes.values()
    elif name == "voltdb":
        for table in store.partitions.values():
            for __, row in table.items():
                yield row
    else:
        raise AssertionError(f"no walk for store {name!r}")


@pytest.mark.parametrize("store_name", STORE_NAMES)
def test_a_store_holds_at_most_256_value_objects_a_length(store_name):
    store = create_store(store_name, Cluster(CLUSTER_M, 2))
    store.load(generate_records(RECORDS))
    # The store keeps every value alive, so no id is reused meanwhile.
    objects = defaultdict(set)
    rows = 0
    width = store.schema.field_count
    for row in _held_rows(store):
        rows += 1
        assert type(row) is tuple and len(row) == width, row
        for value in row:
            objects[len(value)].add(id(value))
    assert rows >= RECORDS
    assert set(objects) == {10}
    assert len(objects[10]) <= 256


@pytest.mark.parametrize("store_name", STORE_NAMES)
def test_a_loaded_record_holds_no_more_than_its_ceiling(store_name):
    store = create_store(store_name, Cluster(CLUSTER_M, 2))
    generate_record(0)  # the shared value table, built outside the count
    gc.collect()
    tracemalloc.start()
    try:
        store.load(generate_records(RECORDS))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    per_record = held / RECORDS
    assert per_record < HELD_BYTES_CEILING[store_name], (
        f"{store_name}: {per_record:.1f} bytes held a loaded record")
