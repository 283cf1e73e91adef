"""Unit tests for the Cassandra store model."""

import pytest

from repro.keyspace import format_key
from repro.sim.cluster import CLUSTER_M, Cluster
from repro.stores.cassandra import CassandraStore
from tests.stores.conftest import make_records, run_op


@pytest.fixture
def store(cluster4, records):
    deployed = CassandraStore(cluster4)
    deployed.load(records)
    return deployed


class TestDeployment:
    def test_one_engine_per_server(self, store):
        assert len(store.engines) == 4

    def test_load_routes_by_token(self, store, records):
        for key, row in records[:50]:
            owner = store.ring.owner_of(key)
            result = store.engines[owner].get(key)
            assert result.row == row

    def test_load_distributes_across_nodes(self, store):
        counts = [engine.record_count for engine in store.engines]
        assert all(count > 0 for count in counts)
        assert max(counts) / (sum(counts) / 4) < 1.5

    def test_load_compacts_to_few_sstables(self, store):
        assert all(len(e.sstables) <= 2 for e in store.engines)

    def test_disk_bytes_reported_per_server(self, store):
        usage = store.disk_bytes_per_server()
        assert len(usage) == 4
        assert all(bytes_ > 0 for bytes_ in usage)


class TestOperations:
    def test_read_existing(self, store, records):
        session = store.session(store.cluster.clients[0], 0)
        result = run_op(store, session.read(records[7][0]))
        assert result == records[7][1]

    def test_read_missing(self, store):
        session = store.session(store.cluster.clients[0], 0)
        assert run_op(store, session.read(format_key(10**6))) is None

    def test_insert_then_read(self, store):
        session = store.session(store.cluster.clients[0], 0)
        key, row = make_records(600)[-1]
        assert run_op(store, session.insert(key, row))
        assert run_op(store, session.read(key)) == row

    def test_delete(self, store, records):
        session = store.session(store.cluster.clients[0], 0)
        run_op(store, session.delete(records[3][0]))
        assert run_op(store, session.read(records[3][0])) is None

    def test_scan_returns_sorted_rows(self, store, records):
        session = store.session(store.cluster.clients[0], 0)
        rows = run_op(store, session.scan(records[0][0], 10))
        keys = [key for key, __ in rows]
        assert keys == sorted(keys)
        assert 0 < len(rows) <= 10

    def test_update_merges_via_upsert(self, store, records):
        session = store.session(store.cluster.clients[0], 0)
        run_op(store, session.update(
            records[5][0], ("new-value!", None, None, None, None)))
        result = run_op(store, session.read(records[5][0]))
        assert result == ("new-value!",) + records[5][1][1:]


class TestTimingModel:
    def test_remote_op_costs_more_than_local(self, records):
        """Coordinator forwarding adds a network hop."""
        cluster = Cluster(CLUSTER_M, 4)
        store = CassandraStore(cluster)
        store.load(records)
        store.warm_caches()
        session = store.session(cluster.clients[0], 0)
        timings = {}
        for key, row in records[:40]:
            owner = store.ring.owner_of(key)
            session._rr = owner - 1  # next coordinator == owner
            start = store.sim.now
            run_op(store, session.read(key))
            timings.setdefault("local", []).append(store.sim.now - start)
            session._rr = owner  # next coordinator != owner
            start = store.sim.now
            run_op(store, session.read(key))
            timings.setdefault("remote", []).append(store.sim.now - start)
        local = sum(timings["local"]) / len(timings["local"])
        remote = sum(timings["remote"]) / len(timings["remote"])
        assert remote > local

    def test_write_is_not_disk_bound(self, store):
        """Commit log is periodic: the write returns before the disk."""
        session = store.session(store.cluster.clients[0], 0)
        start = store.sim.now
        run_op(store, session.insert(format_key(999_999),
                                     make_records(1)[0][1]))
        elapsed = store.sim.now - start
        assert elapsed < 0.005  # far below a disk seek + queue

    def test_coordinator_rotates(self, store):
        session = store.session(store.cluster.clients[0], 0)
        coordinators = {session._next_coordinator() for __ in range(8)}
        assert coordinators == {0, 1, 2, 3}

    def test_server_cost_grows_with_connections(self, store):
        base = store.server_cost(100e-6)
        for i in range(100):
            store.session(store.cluster.clients[0], i)
        assert store.server_cost(100e-6) > base
