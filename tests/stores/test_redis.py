"""Unit tests for the Redis store model."""

import pytest

from repro.keyspace import format_key
from repro.sim.cluster import CLUSTER_M, Cluster
from repro.storage.encoding import redis_memory_per_record
from repro.storage.hashstore import HashStore
from repro.stores.redis import RedisStore
from tests.stores.conftest import make_records, run_op


@pytest.fixture
def store(cluster4, records):
    deployed = RedisStore(cluster4)
    deployed.load(records)
    return deployed


class TestDeployment:
    def test_one_shard_per_node(self, store):
        assert len(store.shards) == 4
        assert len(store.event_loops) == 4

    def test_load_follows_jedis_ring(self, store, records):
        for key, row in records[:50]:
            shard = store.shard_of(key)
            assert store.shards[shard].hgetall(key) == row

    def test_clients_doubled(self):
        # the paper doubled client machines for Redis
        assert RedisStore.clients_for(12, 3) == 8
        assert RedisStore.clients_for(1, 3) == 1

    def test_connections_shrink_with_cluster_size(self, cluster4):
        store = RedisStore(cluster4)
        assert store.connections(128) <= 128
        single = RedisStore(Cluster(CLUSTER_M, 1))
        assert single.connections(128) == 128

    def test_md5_ring_option(self, cluster4):
        store = RedisStore(cluster4, hash_algorithm="md5")
        assert store.shard_of(format_key(0)) in range(4)


class TestOperations:
    def test_crud_cycle(self, store):
        session = store.session(store.cluster.clients[0], 0)
        key, row = make_records(510)[-1]
        assert run_op(store, session.insert(key, row))
        assert run_op(store, session.read(key)) == row
        assert run_op(store, session.delete(key))
        assert run_op(store, session.read(key)) is None

    def test_scan_stays_on_one_shard(self, store, records):
        session = store.session(store.cluster.clients[0], 0)
        start_key = records[0][0]
        shard = store.shard_of(start_key)
        rows = run_op(store, session.scan(start_key, 10))
        for key, __ in rows:
            assert store.shard_of(key) == shard

    def test_scan_returns_sorted(self, store, records):
        session = store.session(store.cluster.clients[0], 0)
        rows = run_op(store, session.scan(records[0][0], 10))
        keys = [k for k, __ in rows]
        assert keys == sorted(keys)

    def test_scan_walks_the_index_once(self, store, records, monkeypatch):
        """The second round trip fetches the keys the first returned: a
        ZRANGEBYLEX, then pipelined HGETALLs, not a second ZRANGE."""
        start_key = records[0][0]
        expected = store.shards[store.shard_of(start_key)].scan(start_key, 10)
        walks = []
        zrange_from = HashStore.zrange_from
        monkeypatch.setattr(HashStore, "zrange_from",
                            lambda shard, *args: walks.append(args)
                            or zrange_from(shard, *args))
        session = store.session(store.cluster.clients[0], 0)
        assert run_op(store, session.scan(start_key, 10)) == expected
        assert walks == [(start_key, 10)]


class TestOutOfMemory:
    def test_hot_shard_ooms_and_counts_errors(self, records):
        cluster = Cluster(CLUSTER_M, 2)
        store = RedisStore(cluster)
        budget = int(redis_memory_per_record() * 100)
        for shard in store.shards:
            shard.max_memory_bytes = budget
        store.load(make_records(400))  # 400 records over ~200 slots
        assert store.errors > 0
        total = sum(len(s) for s in store.shards)
        assert total < 400

    def test_insert_to_full_shard_reports_failure(self, cluster1):
        store = RedisStore(cluster1)
        store.shards[0].max_memory_bytes = int(
            redis_memory_per_record() * 1.5)
        session = store.session(cluster1.clients[0], 0)
        first, second = make_records(2)
        assert run_op(store, session.insert(*first))
        assert not run_op(store, session.insert(*second))
        assert store.errors == 1


class TestTimingModel:
    def test_single_threaded_shard_serialises(self, cluster1):
        store = RedisStore(cluster1)
        store.load(make_records(50))
        sessions = [store.session(cluster1.clients[0], i) for i in range(8)]
        sim = store.sim
        procs = [sim.process(s.read(make_records(50)[i][0]))
                 for i, s in enumerate(sessions)]
        sim.run(until=sim.all_of(procs))
        # 8 concurrent reads serialise on the single event loop:
        # total time >= 8 x service time.
        assert sim.now >= 8 * store.profile.read_cpu
