"""Where a batched load puts every record, across batch boundaries.

A load takes its records ``LOAD_BATCH_RECORDS`` (B) at a time and routes
each batch's keys with one batched hash (``murmur64a_many``, or MD5 key
by key on the Jedis MD5 ring).  A batch cut one record short or long, a
batch whose hashes drift one key out of step, or a replica walk taken
from the wrong slot leaves a key somewhere the store's own scalar
routing (``shard_of``, ``partition_of``, ``homes``) does not look.  So
each hash-routed store loads 0, 1, B-1, B, B+1 and 2B+1 records and
every key must sit exactly where the scalar path puts it, and nowhere
else.  (The LSM flush rounds are pinned by ``test_load_fingerprint``,
the generator's own hash batches by ``tests/ycsb/test_generator.py``.)
"""

from collections import defaultdict

import pytest

from repro.keyspace import format_key
from repro.sim.cluster import CLUSTER_M, Cluster
from repro.stores.base import LOAD_BATCH_RECORDS as B
from repro.stores.registry import create_store
from repro.ycsb.generator import generate_records

COUNTS = (0, 1, B - 1, B, B + 1, 2 * B + 1)


def _tree_keys(trees):
    return [[key for key, __ in tree.items()] for tree in trees]


def _placed(store) -> dict[str, list[int]]:
    """Key -> the sorted places the loaded state holds it in."""
    if store.name == "mysql":
        held = enumerate(_tree_keys(store.tables))
    elif store.name == "voldemort":
        held = enumerate(_tree_keys(store.trees))
    elif store.name == "redis":
        held = enumerate([key for key, __ in shard.index().items()]
                         for shard in store.shards)
    elif store.name == "voltdb":
        held = ((pid, [key for key, __ in table.items()])
                for pid, table in store.partitions.items())
    else:
        held = enumerate([key for key, __ in engine.scan("", max(COUNTS))[0]]
                         for engine in store.engines)
    placed = defaultdict(list)
    for place, keys in held:
        for key in keys:
            placed[key].append(place)
    return {key: sorted(places) for key, places in placed.items()}


def _scalar(store, key: str) -> list[int]:
    """Where the per-operation path routes ``key``."""
    if store.name in ("mysql", "redis"):
        return [store.shard_of(key)]
    if store.name == "voltdb":
        return [store.partition_of(key)]
    return sorted(store.homes(key))


STORES = {
    "mysql": ("mysql", {}),
    "redis-murmur": ("redis", {}),
    "redis-md5": ("redis", {"hash_algorithm": "md5"}),
    "voltdb": ("voltdb", {}),
    "cassandra-rf1": ("cassandra", {}),
    "cassandra-rf3": ("cassandra", {"replication_factor": 3}),
    "voldemort-rf1": ("voldemort", {}),
    "voldemort-rf3": ("voldemort", {"replication_factor": 3}),
}


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("label", sorted(STORES))
def test_every_key_where_the_scalar_route_puts_it(label, count):
    name, kwargs = STORES[label]
    store = create_store(name, Cluster(CLUSTER_M, 4), **kwargs)
    store.load(generate_records(count))
    assert getattr(store, "errors", 0) == 0
    assert _placed(store) == {
        key: _scalar(store, key)
        for key in map(format_key, range(count))}


def test_replicated_loads_fill_distinct_nodes():
    # The RF 3 cases above would pass vacuously if the walk collapsed
    # onto one node: every key must have three distinct homes.
    for name in ("cassandra", "voldemort"):
        store = create_store(name, Cluster(CLUSTER_M, 4),
                             replication_factor=3)
        store.load(generate_records(B + 1))
        assert {len(set(places)) for places in _placed(store).values()} == {3}
