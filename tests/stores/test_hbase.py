"""Unit tests for the HBase store model (and HDFS substrate)."""

import pytest

from repro.sim.faults import NodeDownError
from repro.stores.hbase import HBaseStore
from repro.stores.hdfs import Hdfs, NameNode
from tests.stores.conftest import make_records, run_op


@pytest.fixture
def store(cluster4, records):
    deployed = HBaseStore(cluster4)
    deployed.load(records)
    return deployed


class TestHdfs:
    def test_namenode_tracks_blocks(self):
        namenode = NameNode(block_size=1000)
        namenode.create("/f")
        block = namenode.allocate_block("/f", preferred_datanode=2)
        block.size = 500
        assert namenode.files["/f"].size == 500
        assert namenode.files["/f"].blocks == [block]

    def test_append_allocates_blocks_locally(self, cluster4):
        hdfs = Hdfs(cluster4.sim, cluster4.network, cluster4.servers,
                    block_size=1000)
        hdfs.create("/wal")
        writer = cluster4.servers[1]
        sim = cluster4.sim
        for __ in range(3):
            sim.run(until=sim.process(hdfs.append("/wal", 400, writer)))
        file = hdfs.namenode.files["/wal"]
        # 400+400 fits one block; the third overflows into a new one
        assert [b.size for b in file.blocks] == [800, 400]
        assert all(b.datanode == 1 for b in file.blocks)
        assert hdfs.used_bytes_per_datanode()[1] == 1200

    def test_read_missing_file_raises(self, cluster4):
        hdfs = Hdfs(cluster4.sim, cluster4.network, cluster4.servers)
        sim = cluster4.sim
        with pytest.raises(FileNotFoundError):
            sim.run(until=sim.process(
                hdfs.read("/nope", (("b",),), 4096, cluster4.servers[0])))

    def test_local_read_pays_loopback_not_wire(self, cluster4):
        hdfs = Hdfs(cluster4.sim, cluster4.network, cluster4.servers)
        hdfs.create("/f")
        sim = cluster4.sim
        node = cluster4.servers[0]
        sim.run(until=sim.process(hdfs.append("/f", 4096, node)))
        node.page_cache.insert(("blk", 1))
        start = sim.now
        sim.run(until=sim.process(
            hdfs.read("/f", (("blk", 1),), 4096, node)))
        assert sim.now - start < 0.001  # no switch latency, cache hit

    def test_a_datanode_lost_between_probes_fails_the_next_one(
            self, cluster4):
        """One read, two probes: the DataNode's node crashes once the
        first probe's four events (loopback, CPU grant, CPU timer,
        loopback) have fired, and the second probe raises as it starts,
        before an event of its own."""
        hdfs = Hdfs(cluster4.sim, cluster4.network, cluster4.servers)
        hdfs.create("/f")
        sim = cluster4.sim
        node = cluster4.servers[0]
        sim.run(until=sim.process(hdfs.append("/f", 4096, node)))
        node.page_cache.insert(("blk", 1))
        read = hdfs.read("/f", (("blk", 1), ("blk", 2)), 4096, node)
        fired = []

        def reader():
            """Delegates to ``read`` by hand, to crash between probes."""
            event = next(read)
            while True:
                fired.append((yield event))
                if len(fired) == 4:
                    node.fail()
                event = read.send(fired[-1])
        process = sim.process(reader())
        sim.run()
        assert len(fired) == 4
        assert not process.ok
        assert isinstance(process.value, NodeDownError)
        assert "no live replica" in str(process.value)


class TestRegions:
    def test_regions_partition_key_space(self, store, records):
        assert store.n_regions == 8
        for key, row in records[:50]:
            region = store.region_of(key)
            engine = store.engine_of(region)
            assert engine.get(key).row == row

    def test_regions_spread_over_servers(self, store):
        servers = {store.server_of_region(r).index
                   for r in range(store.n_regions)}
        assert servers == {0, 1, 2, 3}

    def test_region_boundaries_are_lexicographic(self, store, records):
        ordered = sorted(key for key, __ in records)
        regions = [store.region_of(k) for k in ordered]
        assert regions == sorted(regions)  # monotone in key order

    def test_master_node_off_data_path(self, store):
        assert store.master_node.name == "hbase-master"


class TestOperations:
    def test_read_existing(self, store, records):
        session = store.session(store.cluster.clients[0], 0)
        assert run_op(store, session.read(records[4][0])) == records[4][1]

    def test_buffered_insert_visible_after_flush(self, store):
        session = store.session(store.cluster.clients[0], 0)
        key, row = make_records(520)[-1]
        run_op(store, session.insert(key, row))
        # not yet flushed: the server has not seen it
        assert run_op(store, session.read(key)) is None
        run_op(store, session.flush_buffer())
        assert run_op(store, session.read(key)) == row

    def test_buffer_flushes_automatically_when_full(self, store):
        session = store.session(store.cluster.clients[0], 0)
        extra = make_records(500 + store.WRITE_BUFFER_OPS)[500:]
        for key, row in extra:
            run_op(store, session.insert(key, row))
        assert len(session._buffer) == 0  # auto-flush happened
        assert run_op(store, session.read(extra[0][0])) == extra[0][1]

    def test_unbuffered_mode_writes_through(self, cluster4, records):
        store = HBaseStore(cluster4, client_buffering=False)
        store.load(records)
        session = store.session(cluster4.clients[0], 0)
        key, row = make_records(510)[-1]
        assert run_op(store, session.insert(key, row))
        assert run_op(store, session.read(key)) == row

    def test_scan_spills_into_next_region(self, store, records):
        session = store.session(store.cluster.clients[0], 0)
        ordered = sorted(key for key, __ in records)
        # start near the end of the key space to force region spill
        start_key = ordered[-3]
        rows = run_op(store, session.scan(start_key, 10))
        assert [k for k, __ in rows] == ordered[-3:]

    def test_delete(self, store, records):
        session = store.session(store.cluster.clients[0], 0)
        run_op(store, session.delete(records[2][0]))
        assert run_op(store, session.read(records[2][0])) is None


class TestTimingModel:
    def test_buffered_write_is_nearly_instant(self, store):
        session = store.session(store.cluster.clients[0], 0)
        key, row = make_records(501)[-1]
        start = store.sim.now
        run_op(store, session.insert(key, row))
        assert store.sim.now - start < 0.001

    def test_read_pays_handler_and_hdfs_path(self, store, records):
        session = store.session(store.cluster.clients[0], 0)
        start = store.sim.now
        run_op(store, session.read(records[0][0]))
        latency = store.sim.now - start
        assert latency > store.profile.read_cpu  # cpu + DN hop at least

    def test_handler_pool_limits_concurrency(self, store, records):
        sim = store.sim
        sessions = [store.session(store.cluster.clients[0], i)
                    for i in range(30)]
        target = records[0][0]
        server = store.server_of_region(store.region_of(target))
        procs = [sim.process(s.read(target)) for s in sessions]
        sim.run(until=sim.all_of(procs))
        assert server.handlers.stats.peak_queue_length > 0

    def test_min_window_covers_buffer_cycles(self, store):
        warmup, measured = store.min_window(100)
        assert warmup >= 100 * store.WRITE_BUFFER_OPS
        assert measured >= 100 * store.WRITE_BUFFER_OPS

    def test_min_window_default_when_unbuffered(self, cluster4):
        store = HBaseStore(cluster4, client_buffering=False)
        assert store.min_window(100) == (100, 800)
