"""Unit tests for the replication extension (the paper's future work)."""

import pytest

from repro.sim.cluster import CLUSTER_M, Cluster
from repro.sim.kernel import KOf, SimulationError, Simulator
from repro.stores.cassandra import CassandraStore
from tests.stores.conftest import make_records, run_op


class TestKOf:
    def test_fires_after_k_successes(self):
        sim = Simulator()

        def proc(delay):
            yield sim.timeout(delay)

        events = [sim.process(proc(d)) for d in (1.0, 2.0, 3.0)]
        sim.run(until=sim.k_of(events, 2))
        assert sim.now == 2.0

    def test_k_zero_fires_immediately(self):
        sim = Simulator()
        event = sim.k_of([], 0)
        sim.run()
        assert event.processed and event.ok

    def test_k_out_of_range(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            KOf(sim, [], 1)

    def test_failure_propagates(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1.0)
            raise RuntimeError("replica down")

        def good():
            yield sim.timeout(5.0)

        events = [sim.process(bad()), sim.process(good())]
        with pytest.raises(RuntimeError):
            sim.run(until=sim.k_of(events, 2))


class TestReplicatedCassandra:
    @pytest.fixture
    def records(self):
        return make_records(300)

    def deploy(self, records, **kwargs):
        cluster = Cluster(CLUSTER_M, 4)
        store = CassandraStore(cluster, **kwargs)
        store.load(records)
        store.warm_caches()
        return store

    def test_validation(self):
        cluster = Cluster(CLUSTER_M, 2)
        with pytest.raises(ValueError):
            CassandraStore(cluster, replication_factor=0)
        with pytest.raises(ValueError):
            CassandraStore(cluster, consistency_level="two")
        with pytest.raises(ValueError):
            CassandraStore(cluster, commitlog_sync="group")
        with pytest.raises(ValueError):
            CassandraStore(cluster, compression_ratio=0.0)

    def test_rf_capped_at_cluster_size(self):
        cluster = Cluster(CLUSTER_M, 2)
        store = CassandraStore(cluster, replication_factor=5)
        assert store.replication_factor == 2

    def test_load_replicates_to_rf_nodes(self, records):
        store = self.deploy(records, replication_factor=3)
        total = sum(engine.record_count for engine in store.engines)
        assert total == 3 * len(records)

    def test_replicated_write_visible_on_all_replicas(self, records):
        store = self.deploy(records, replication_factor=3,
                            consistency_level="all")
        session = store.session(store.cluster.clients[0], 0)
        key, row = make_records(310)[-1]
        assert run_op(store, session.insert(key, row))
        for replica in store.ring.replicas_of(key, 3):
            result = store.engines[replica].get(key)
            assert result.row == row

    def test_required_acks_per_consistency_level(self):
        cluster = Cluster(CLUSTER_M, 4)
        one = CassandraStore(cluster, replication_factor=3,
                             consistency_level="one")
        assert one.required_acks() == 1
        quorum = CassandraStore(Cluster(CLUSTER_M, 4),
                                replication_factor=3,
                                consistency_level="quorum")
        assert quorum.required_acks() == 2
        al = CassandraStore(Cluster(CLUSTER_M, 4), replication_factor=3,
                            consistency_level="all")
        assert al.required_acks() == 3

    def test_all_waits_longer_than_one(self, records):
        def write_latency(consistency_level):
            store = self.deploy(records, replication_factor=3,
                                consistency_level=consistency_level)
            session = store.session(store.cluster.clients[0], 0)
            key, row = make_records(305)[-1]
            start = store.sim.now
            run_op(store, session.insert(key, row))
            return store.sim.now - start

        assert write_latency("all") > write_latency("one")

    def test_disk_usage_grows_with_rf(self, records):
        rf1 = self.deploy(records, replication_factor=1)
        rf3 = self.deploy(records, replication_factor=3)
        assert (sum(rf3.disk_bytes_per_server())
                > 2.5 * sum(rf1.disk_bytes_per_server()))

    def test_reads_served_from_primary(self, records):
        store = self.deploy(records, replication_factor=3)
        session = store.session(store.cluster.clients[0], 0)
        assert run_op(store, session.read(records[0][0])) == records[0][1]
