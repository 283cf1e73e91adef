"""Unit tests for the VoltDB store model."""

import pytest

from repro.sim.cluster import CLUSTER_M, Cluster
from repro.stores.voltdb import VoltDBStore
from tests.stores.conftest import make_records, run_op


@pytest.fixture
def store(cluster4, records):
    deployed = VoltDBStore(cluster4)
    deployed.load(records)
    return deployed


class TestDeployment:
    def test_six_sites_per_host(self, store):
        assert store.n_partitions == 24
        assert len(store.sites) == 24

    def test_partition_maps_to_host(self, store):
        for partition in range(store.n_partitions):
            node = store.node_of_partition(partition)
            assert 0 <= node < 4

    def test_load_lands_in_owner_partition(self, store, records):
        for key, row in records[:50]:
            partition = store.partition_of(key)
            assert store.partitions[partition].get(key) == row


class TestOperations:
    def test_single_partition_crud(self, store):
        session = store.session(store.cluster.clients[0], 0)
        key, row = make_records(520)[-1]
        assert run_op(store, session.insert(key, row))
        assert run_op(store, session.read(key)) == row
        assert run_op(store, session.delete(key))
        assert run_op(store, session.read(key)) is None

    def test_scan_is_multi_partition_and_correct(self, store, records):
        session = store.session(store.cluster.clients[0], 0)
        start_key = records[10][0]
        rows = run_op(store, session.scan(start_key, 20))
        all_keys = sorted(key for key, __ in records if key >= start_key)
        assert [k for k, __ in rows] == all_keys[:20]

    def test_writes_and_deletes_after_a_scan_keep_the_key_order(
            self, store, records):
        """The first scan sorts each partition's keys; later inserts and
        deletes keep them sorted, and a delete before it sorts none."""
        session = store.session(store.cluster.clients[0], 0)
        assert run_op(store, session.delete(records[3][0]))
        assert not store._ordered
        run_op(store, session.scan("", 1))
        assert len(store._ordered) == store.n_partitions
        fresh = make_records(560)[-40:]
        for key, row in fresh:
            run_op(store, session.insert(key, row))
        for key, row in records[::7]:
            run_op(store, session.delete(key))
        held = {key: row for table in store.partitions.values()
                for key, row in table.items()}
        rows = run_op(store, session.scan(records[20][0], 60))
        assert rows == sorted((key, row) for key, row in held.items()
                              if key >= records[20][0])[:60]

    def test_update_merges(self, store, records):
        session = store.session(store.cluster.clients[0], 0)
        run_op(store, session.update(
            records[0][0], ("XXX", None, None, None, None)))
        result = run_op(store, session.read(records[0][0]))
        assert result == ("XXX",) + records[0][1][1:]


class TestTimingModel:
    def test_single_node_skips_global_ordering(self, records):
        single = VoltDBStore(Cluster(CLUSTER_M, 1))
        single.load(records)
        session = single.session(single.cluster.clients[0], 0)
        start = single.sim.now
        run_op(single, session.read(records[0][0]))
        single_latency = single.sim.now - start

        multi = VoltDBStore(Cluster(CLUSTER_M, 8))
        multi.load(records)
        session = multi.session(multi.cluster.clients[0], 0)
        start = multi.sim.now
        run_op(multi, session.read(records[0][0]))
        multi_latency = multi.sim.now - start
        assert multi_latency > single_latency

    def test_sequencer_serialises_transactions(self, records):
        store = VoltDBStore(Cluster(CLUSTER_M, 4))
        store.load(records)
        sim = store.sim
        sessions = [store.session(store.cluster.clients[0], i)
                    for i in range(10)]
        procs = [sim.process(s.read(records[i][0]))
                 for i, s in enumerate(sessions)]
        sim.run(until=sim.all_of(procs))
        hold = (store.INITIATION_BASE_CPU
                + 4 * store.INITIATION_PER_NODE_CPU)
        assert sim.now >= 10 * hold

    def test_async_client_ablation_removes_sequencer(self, records):
        """Section 6: VoltDB's own benchmark used asynchronous clients."""
        sync = VoltDBStore(Cluster(CLUSTER_M, 4), synchronous_client=True)
        async_ = VoltDBStore(Cluster(CLUSTER_M, 4),
                             synchronous_client=False)
        for deployed in (sync, async_):
            deployed.load(records)
        sim_sync = sync.sim
        procs = [sim_sync.process(
            sync.session(sync.cluster.clients[0], i).read(records[i][0]))
            for i in range(20)]
        sim_sync.run(until=sim_sync.all_of(procs))
        sim_async = async_.sim
        procs = [sim_async.process(
            async_.session(async_.cluster.clients[0], i).read(
                records[i][0]))
            for i in range(20)]
        sim_async.run(until=sim_async.all_of(procs))
        assert sim_async.now < sim_sync.now

    def test_scan_occupies_every_site(self, store, records):
        before = [site.stats.requests for site in store.sites.values()]
        session = store.session(store.cluster.clients[0], 0)
        run_op(store, session.scan(records[0][0], 5))
        after = [site.stats.requests for site in store.sites.values()]
        assert all(b > a or b == a + 1 for a, b in zip(before, after))
        assert sum(after) - sum(before) == store.n_partitions
