"""Unit tests for the MySQL store model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.keyspace import format_key, lex_position
from repro.sim.cluster import CLUSTER_M, Cluster
from repro.stores.mysql import MySQLStore
from tests.rows import fields_of, row_of
from tests.storage.reference_reads import copy_per_leg_merge
from tests.stores.conftest import make_records, run_op


@pytest.fixture
def store(cluster4, records):
    deployed = MySQLStore(cluster4)
    deployed.load(records)
    deployed.warm_caches()
    return deployed


class TestDeployment:
    def test_one_table_per_shard(self, store):
        assert len(store.tables) == 4

    def test_jdbc_ring_balances_load(self, store):
        counts = [len(t) for t in store.tables]
        fair = sum(counts) / 4
        assert max(counts) / fair < 1.25

    def test_binlog_grows_on_load(self, store):
        assert all(b > 0 for b in store.binlog_bytes)

    def test_binlog_can_be_disabled(self, cluster4, records):
        deployed = MySQLStore(cluster4, binlog_enabled=False)
        deployed.load(records)
        assert all(b == 0 for b in deployed.binlog_bytes)

    def test_disk_usage_halves_without_binlog(self, cluster4, records):
        with_binlog = MySQLStore(cluster4)
        with_binlog.load(records)
        without = MySQLStore(cluster4, binlog_enabled=False)
        without.load(records)
        total_with = sum(with_binlog.disk_bytes_per_server())
        total_without = sum(without.disk_bytes_per_server())
        assert total_without < 0.65 * total_with

    def test_extra_client_machines(self):
        assert MySQLStore.clients_for(12, 3) == 8


class TestOperations:
    def test_crud_cycle(self, store):
        session = store.session(store.cluster.clients[0], 0)
        key, row = make_records(510)[-1]
        assert run_op(store, session.insert(key, row))
        assert run_op(store, session.read(key)) == row
        assert run_op(store, session.delete(key))
        assert run_op(store, session.read(key)) is None

    def test_single_node_scan_uses_limit(self, records):
        cluster = Cluster(CLUSTER_M, 1)
        store = MySQLStore(cluster)
        store.load(records)
        store.warm_caches()
        session = store.session(cluster.clients[0], 0)
        start = store.sim.now
        rows = run_op(store, session.scan(records[0][0], 10))
        elapsed = store.sim.now - start
        assert len(rows) == 10
        assert elapsed < 0.01  # bounded scan: fast

    def test_sharded_scan_merges_across_shards(self, store, records):
        session = store.session(store.cluster.clients[0], 0)
        start_key = records[20][0]
        rows = run_op(store, session.scan(start_key, 15))
        expected = sorted(key for key, __ in records if key >= start_key)[:15]
        assert [k for k, __ in rows] == expected

    def test_sharded_scan_is_catastrophically_slower(self):
        """Figure 13: the un-LIMITed fan-out dominates beyond one node."""
        records = make_records(5000)
        single = MySQLStore(Cluster(CLUSTER_M, 1))
        single.load(records)
        single.warm_caches()
        sharded = MySQLStore(Cluster(CLUSTER_M, 4))
        sharded.load(records)
        sharded.warm_caches()
        early_key = sorted(key for key, __ in records)[0]

        def scan_time(store):
            session = store.session(store.cluster.clients[0], 0)
            start = store.sim.now
            run_op(store, session.scan(early_key, 10))
            return store.sim.now - start

        assert scan_time(sharded) > 5 * scan_time(single)


def merged_scan(legs, count):
    """``MySQLSession.scan``'s client merge over hand-built legs: leg
    ``i`` is the ``(key, fields)`` pairs shard ``i`` streams, by
    reference, as the rows its table holds.  The scan hands each row out
    as the leg streamed it (a row is immutable); it is returned here as
    its field dict, the form the reference merge compares."""
    store = MySQLStore(Cluster(CLUSTER_M, len(legs)))
    session = store.session(store.cluster.clients[0], 0)
    streamed = [[(key, row_of(fields)) for key, fields in rows]
                for rows in legs]

    def hand_built(shard, start_key, count):
        def leg():
            yield store.sim.timeout(0.001 * (shard + 1))
            return streamed[shard], len(streamed[shard])
        return store.sim.process(leg())

    session.sim_process_for_shard = hand_built
    rows = run_op(store, session.scan("", count))
    # A key two legs stream is the last leg's row.
    held = {key: row for leg in streamed for key, row in leg}
    assert all(row is held[key] for key, row in rows)
    return [(key, fields_of(row)) for key, row in rows]


def _busy(node, seconds):
    """Hold every core of ``node``: a leg it serves reads late."""
    for __ in range(node.spec.cores):
        node.sim.process(node.cpu(seconds))


class TestShardedScanMerge:
    @settings(max_examples=60, deadline=None)
    @given(owner=st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                          max_size=40),
           count=st.integers(min_value=0, max_value=45))
    def test_disjoint_legs_merge_as_copied_legs_merged(self, owner, count):
        """The ring gives a key one shard: sorting the keys and copying
        the survivors returns what sorting the copied tuples returned."""
        stored = [(f"user{i:03d}", {"field0": str(i)})
                  for i in range(len(owner))]
        legs = [[row for row, shard in zip(stored, owner) if shard == leg]
                for leg in range(4)]
        assert merged_scan(legs, count) == copy_per_leg_merge(legs, count)

    def test_a_key_two_legs_stream_is_one_row(self):
        """A reshard moved ``user001`` between two legs' reads.  Sorted
        as ``(key, row)`` tuples the key came back twice — and once a
        write had landed between the reads, the sort compared two
        unequal rows."""
        legs = [[("user000", {"field0": "a"}), ("user001", {"field0": "b"})],
                [("user001", {"field0": "b"}), ("user002", {"field0": "c"})]]
        assert [key for key, __ in copy_per_leg_merge(legs, 10)] == [
            "user000", "user001", "user001", "user002"]
        assert merged_scan(legs, 10) == [
            ("user000", {"field0": "a"}), ("user001", {"field0": "b"}),
            ("user002", {"field0": "c"})]
        assert merged_scan(legs, 2) == [
            ("user000", {"field0": "a"}), ("user001", {"field0": "b"})]
        legs[1][0] = ("user001", {"field0": "written"})
        with pytest.raises(TypeError):
            copy_per_leg_merge(legs, 10)
        # Either read is a legitimate answer to a scan the write raced.
        assert [key for key, __ in merged_scan(legs, 10)] == [
            "user000", "user001", "user002"]

    @pytest.mark.parametrize("reshard", ["grow", "shrink"])
    def test_scan_running_across_a_reshard(self, store, records, reshard):
        """Three legs read, the topology changes, the fourth reads: a
        shrink re-homes rows the early legs already streamed onto the
        late leg's shard, so it streams them again."""
        sim, cluster = store.sim, store.cluster
        session = store.session(cluster.clients[0], 0)
        start_key = min(key for key, __ in records)
        _busy(cluster.servers[3], 0.05)
        scan = sim.process(session.scan(start_key, len(records)))
        sim.run(until=0.02)
        assert not scan.triggered
        if reshard == "grow":
            store.grow(cluster.add_server())
        else:
            store.shrink(0)
            assert len(store.tables[0]) == 0
        rows = sim.run(until=scan)
        keys = [key for key, __ in rows]
        assert keys == sorted(set(keys))
        by_key = dict(records)
        assert all(fields == by_key[key] for key, fields in rows)
        if reshard == "shrink":  # nothing is missed, only seen twice
            assert keys == sorted(by_key)


class TestMvccPurgeLag:
    def test_backlog_grows_when_inserts_outrun_purge(self, store):
        shard = 0
        store._versions_created[shard] = 5000
        # sim.now is ~0: nothing purged yet
        assert store._version_backlog(shard) == pytest.approx(5000)

    def test_backlog_drains_over_time(self, store):
        shard = 0
        store._versions_created[shard] = 5000
        store.sim._now = 10.0  # purge had 10 seconds
        expected = 5000 - 10 * store.PURGE_RATE
        assert store._version_backlog(shard) == pytest.approx(
            max(0, expected))

    def test_scan_pays_for_backlog(self, records):
        cluster = Cluster(CLUSTER_M, 1)
        store = MySQLStore(cluster)
        store.load(records)
        session = store.session(cluster.clients[0], 0)
        start = store.sim.now
        run_op(store, session.scan(records[0][0], 10))
        clean = store.sim.now - start
        store._versions_created[0] = 50_000
        start = store.sim.now
        run_op(store, session.scan(records[0][0], 10))
        laggy = store.sim.now - start
        assert laggy > 5 * clean


class TestKeyPosition:
    def test_positions_are_uniform(self):
        positions = [lex_position(format_key(i)) for i in range(2000)]
        assert 0.45 < sum(positions) / len(positions) < 0.55
        assert min(positions) >= 0.0
        assert max(positions) < 1.0

    def test_position_matches_rank(self):
        keys = sorted(format_key(i) for i in range(5000))
        # lexicographic rank should track the computed position
        for rank_fraction in (0.1, 0.5, 0.9):
            key = keys[int(rank_fraction * len(keys))]
            assert lex_position(key) == pytest.approx(rank_fraction,
                                                      abs=0.05)

    def test_non_benchmark_key_falls_back_to_hash(self):
        position = lex_position("some/metric/path|000000000001")
        assert 0.0 <= position < 1.0
