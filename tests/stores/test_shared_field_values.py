"""A loaded store holds field values by reference to the shared table.

The record generator draws every field value from one table of 256
strings per field length, and the stores copy field *dicts*, never the
strings in them, so however many records a store holds, the values it
keeps are at most 256 distinct objects per length.  That is what a
loaded record's memory is made of, so this test keeps it: it loads each
store, walks what its engines hold through their public iteration and
counts the distinct value objects.  A decode, re-encode, format or
concatenation of a value anywhere on the way in mints a string per
record again and fails here.
"""

from collections import defaultdict

import pytest

from repro.sim.cluster import CLUSTER_M, Cluster
from repro.stores.registry import STORE_NAMES, create_store
from repro.ycsb.generator import generate_records

#: Three load rounds: each LSM engine holds three runs.
RECORDS = 9_000


def _held_rows(store):
    """Every field dict the store's engines hold, old versions included."""
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
            for __, fields in tree.items():
                yield fields
    elif name == "redis":
        for shard in store.shards:
            for __, fields in shard.scan("", len(shard)):
                yield fields
    elif name == "voltdb":
        for table in store.partitions.values():
            for __, fields in table.items():
                yield fields
    else:
        raise AssertionError(f"no walk for store {name!r}")


@pytest.mark.parametrize("store_name", STORE_NAMES)
def test_a_store_holds_at_most_256_value_objects_a_length(store_name):
    store = create_store(store_name, Cluster(CLUSTER_M, 2))
    store.load(generate_records(RECORDS))
    # The store keeps every value alive, so no id is reused meanwhile.
    objects = defaultdict(set)
    rows = 0
    for fields in _held_rows(store):
        rows += 1
        for value in fields.values():
            objects[len(value)].add(id(value))
    assert rows >= RECORDS
    assert set(objects) == {10}
    assert len(objects[10]) <= 256
