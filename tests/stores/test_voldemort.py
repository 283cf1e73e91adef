"""Unit tests for the Voldemort store model."""

import pytest

from repro.keyspace import format_key
from repro.stores.base import OpError
from repro.stores.voldemort import VoldemortStore
from tests.stores.conftest import make_records, run_op


@pytest.fixture
def store(cluster4, records):
    deployed = VoldemortStore(cluster4)
    deployed.load(records)
    deployed.warm_caches()
    return deployed


class TestDeployment:
    def test_partitions_map_to_nodes(self, store, records):
        for key, row in records[:50]:
            owner = store.owner_of(key)
            assert 0 <= owner < 4
            value, __ = store.trees[owner].get(key)
            assert value == row

    def test_two_partitions_per_node(self, store):
        assert store.ring.n_nodes == 8  # 4 nodes x 2 partitions

    def test_connection_budget_is_reduced(self, store):
        # paper-configured client limits: far below 128 per node
        assert store.connections(128) == 4 * store.CONNECTIONS_PER_NODE

    def test_disk_usage_reflects_log_utilisation(self, store, records):
        usage = sum(store.disk_bytes_per_server())
        live = sum(store.log_bytes)
        assert usage == pytest.approx(live / 0.45, rel=0.01)


class TestOperations:
    def test_read_write_delete_cycle(self, store):
        session = store.session(store.cluster.clients[0], 0)
        key, row = make_records(520)[-1]
        assert run_op(store, session.insert(key, row))
        assert run_op(store, session.read(key)) == row
        assert run_op(store, session.delete(key))
        assert run_op(store, session.read(key)) is None

    def test_scan_unsupported(self, store):
        """Section 5.4: the Voldemort YCSB client has no scans."""
        assert store.supports_scans is False
        session = store.session(store.cluster.clients[0], 0)
        with pytest.raises(OpError):
            next(session.scan("a", 10))

    def test_read_missing(self, store):
        session = store.session(store.cluster.clients[0], 0)
        assert run_op(store, session.read(format_key(10**7))) is None


class TestTimingModel:
    def test_client_routes_directly(self, store, records):
        """No coordinator hop: latency is one round trip + service."""
        session = store.session(store.cluster.clients[0], 0)
        start = store.sim.now
        run_op(store, session.read(records[0][0]))
        latency = store.sim.now - start
        assert latency < 0.001  # sub-millisecond, as in Figure 4

    def test_write_latency_close_to_read(self, store, records):
        session = store.session(store.cluster.clients[0], 0)
        start = store.sim.now
        run_op(store, session.read(records[1][0]))
        read_latency = store.sim.now - start
        start = store.sim.now
        run_op(store, session.insert(records[1][0], records[1][1]))
        write_latency = store.sim.now - start
        assert write_latency < 4 * read_latency
