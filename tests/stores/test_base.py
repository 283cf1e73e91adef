"""Unit tests for the store base classes and registry."""

import pytest

from repro.sim.cluster import CLUSTER_M, Cluster
from repro.stores.base import OpType, ServiceProfile
from repro.stores.registry import (
    STORE_CLASSES,
    STORE_NAMES,
    create_store,
    store_class,
)
from tests.stores.conftest import make_records, run_op


class TestRegistry:
    def test_six_stores_in_paper_order(self):
        assert STORE_NAMES == ("cassandra", "hbase", "voldemort", "redis",
                               "voltdb", "mysql")
        assert set(STORE_CLASSES) == set(STORE_NAMES)

    def test_store_class_lookup(self):
        for name in STORE_NAMES:
            assert store_class(name).name == name

    def test_unknown_store_rejected(self):
        with pytest.raises(ValueError, match="unknown store"):
            store_class("mongodb")

    def test_create_store_deploys(self):
        cluster = Cluster(CLUSTER_M, 2)
        deployed = create_store("redis", cluster)
        assert deployed.cluster is cluster


class TestServiceProfile:
    def test_defaults(self):
        profile = ServiceProfile(read_cpu=1e-4, write_cpu=2e-4)
        assert profile.per_connection_overhead == 0.0
        assert profile.client_connection_overhead == 0.0

    def test_every_store_has_calibrated_profile(self):
        for name in STORE_NAMES:
            profile = store_class(name).default_profile()
            assert profile.read_cpu > 0
            assert profile.write_cpu > 0


class TestStoreHelpers:
    @pytest.fixture
    def store(self):
        cluster = Cluster(CLUSTER_M, 2)
        return create_store("cassandra", cluster)

    def test_request_bytes(self, store):
        base = store.request_bytes("k" * 25)
        with_payload = store.request_bytes("k" * 25, ("0123456789", None))
        assert with_payload == base + 10  # a column not written is free

    def test_response_bytes_scale_with_records(self, store):
        assert (store.response_bytes(10)
                > store.response_bytes(1) > store.response_bytes(0))

    def test_server_cost_without_overhead_is_identity(self):
        cluster = Cluster(CLUSTER_M, 1)
        store = create_store("voldemort", cluster)
        assert store.server_cost(1e-4) == pytest.approx(1e-4)

    def test_sessions_open_counter(self, store):
        assert store.sessions_open == 0
        store.session(store.cluster.clients[0], 0)
        store.session(store.cluster.clients[0], 1)
        assert store.sessions_open == 2

    def test_cached_read_io_hits_skip_disk(self, store):
        node = store.cluster.servers[0]
        node.page_cache.insert("blk")
        sim = store.sim
        start = sim.now
        sim.run(until=sim.process(store.cached_read_io(node, ["blk"])))
        assert sim.now == start  # pure cache hit: no simulated time

    def test_cached_read_io_misses_pay_seek(self, store):
        node = store.cluster.servers[0]
        sim = store.sim
        start = sim.now
        sim.run(until=sim.process(store.cached_read_io(node, ["cold"])))
        assert sim.now - start >= node.disk.spec.seek_time_s


class TestSessionDispatch:
    def test_execute_routes_all_op_types(self):
        cluster = Cluster(CLUSTER_M, 2)
        store = create_store("cassandra", cluster)
        records = make_records(50)
        store.load(records)
        session = store.session(cluster.clients[0], 0)
        target, row = records[0]
        assert run_op(store, session.execute(OpType.READ, target)) == row
        fresh, fresh_row = make_records(60)[-1]
        assert run_op(store, session.execute(
            OpType.INSERT, fresh, fresh_row))
        assert run_op(store, session.execute(
            OpType.UPDATE, target, ("Y" * 10, None, None, None, None)))
        rows = run_op(store, session.execute(
            OpType.SCAN, target, scan_length=5))
        assert len(rows) >= 1
        assert run_op(store, session.execute(OpType.DELETE, target))
