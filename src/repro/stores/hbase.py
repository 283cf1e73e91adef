"""The HBase model: master + region servers over HDFS.

Architecture per Section 4.1, version 0.90.4 on Hadoop 0.20 semantics:

* the table is range-partitioned into regions assigned to region servers;
  clients cache the META mapping and route directly;
* each region is an LSM store (memstore + HFiles); all persistence goes
  through :mod:`repro.stores.hdfs` — a WAL per region server, HFiles on
  flush, size-tiered ("store file") compactions;
* each region server owns a small RPC handler pool
  (``hbase.regionserver.handler.count`` defaulted to 10), the choke point
  behind HBase's high read latencies under load;
* the YCSB HBase client runs with client-side write buffering (auto-flush
  off): puts are acknowledged locally and shipped in batched multi-puts.
  That is why the paper measures sub-millisecond HBase *write* latency
  (Figures 5/8/11) next to 50-90 ms *read* latency (Figure 4) — and why
  reads stuck behind batched writes reach ~1 s in Workload W (Figure 10).

Per-operation region-server costs are calibrated to the paper's
single-node measurements (~2.5 K ops/s Workload R), absorbing the
0.90-era inefficiencies (thrift/IPC copies, no MSLAB, GC pressure) the
paper experienced.
"""

from __future__ import annotations

from typing import Iterable

from repro.sim.cluster import Cluster, Node
from repro.sim.resources import Resource
from repro.storage.lsm import LSMConfig, LSMEngine
from repro.storage.record import APM_SCHEMA, RecordSchema
from repro.stores.base import (
    RetryPolicy,
    ServiceProfile,
    Store,
    StoreSession,
    load_lsm_rounds,
)
from repro.keyspace import lex_position
from repro.stores.hdfs import Hdfs

__all__ = ["HBaseStore", "HBaseSession", "RegionServer"]


class RegionServer:
    """One node's region server: regions, WAL, handler pool."""

    HANDLER_COUNT = 10

    def __init__(self, store: "HBaseStore", node: Node, index: int):
        self.store = store
        self.node = node
        self.index = index
        self.handlers = Resource(node.sim, self.HANDLER_COUNT,
                                 f"hbase-handlers:{node.name}",
                                 component="store")
        #: Name of a traced handler hold's span.
        self.handler_span = f"handler:{node.name}"
        self.regions: dict[int, LSMEngine] = {}
        self.wal_path = f"/hbase/wal/{node.name}.log"
        store.hdfs.create(self.wal_path)

    def add_region(self, region_id: int, engine: LSMEngine) -> None:
        """Assign a region (its LSM store) to this server."""
        self.regions[region_id] = engine


class HBaseStore(Store):
    """Range-partitioned regions on region servers over HDFS."""

    name = "hbase"
    supports_scans = True

    REGIONS_PER_SERVER = 2
    #: Client write buffer: puts per session before a multi-put flush
    #: (the 12 MB HTable buffer, scaled down with the data set).
    WRITE_BUFFER_OPS = 24
    #: Client-side cost of buffering one put (no RPC).
    BUFFERED_PUT_CPU = 30e-6
    #: HBase 0.90 ships with BLOOMFILTER => NONE: reads probe every store
    #: file, a painful multiplier once HFiles live on disk (Cluster D)
    #: rather than in the page cache.
    LSM_CONFIG = LSMConfig(group_commit_ops=48, bloom_enabled=False)

    def __init__(self, cluster: Cluster, schema: RecordSchema = APM_SCHEMA,
                 profile: ServiceProfile | None = None,
                 client_buffering: bool = True):
        super().__init__(cluster, schema, profile)
        self.client_buffering = client_buffering
        self.hdfs = Hdfs(cluster.sim, cluster.network, cluster.servers)
        # The paper ran HMaster/NameNode on a dedicated node; master work
        # is off the data path, so it only appears here as topology.
        self.master_node = Node(cluster.sim, cluster.spec.node,
                                "hbase-master", cluster.network)
        self.region_servers: list[RegionServer] = []
        for index, node in enumerate(cluster.servers):
            self._add_server(node, index)
        self.n_regions = self.REGIONS_PER_SERVER * cluster.n_servers
        self._hfile_paths: dict[int, str] = {}
        #: Current region -> region-server assignment (the META table);
        #: the master rewrites it when a region server dies.
        self._assignment: dict[int, int] = {}
        self.regions_reassigned = 0
        for region_id in range(self.n_regions):
            server = self.region_servers[region_id % cluster.n_servers]
            engine = LSMEngine(self.LSM_CONFIG,
                               name=f"hbase-region-{region_id}",
                               schema=schema)
            server.add_region(region_id, engine)
            self._assignment[region_id] = server.index
            path = f"/hbase/data/region-{region_id}"
            self._hfile_paths[region_id] = path
            self.hdfs.create(path)

    def attach_metrics(self, registry) -> None:
        super().attach_metrics(registry)
        registry.meter("hbase_regions_reassigned_total",
                       lambda: self.regions_reassigned, store=self.name)

    def _attach_node_metrics(self, registry, index: int) -> None:
        """Add handler-queue gauges and per-server region aggregates."""
        from repro.metrics.instrument import register_lsm_engine
        server = self.region_servers[index]
        labels = {"store": self.name, "node": server.node.name}
        registry.probe(
            "hbase_handler_queue",
            lambda s=server: s.handlers.queue_length, **labels)
        registry.meter(
            "store_executor_slot_seconds",
            server.handlers.slot_seconds, **labels)
        registry.probe(
            "store_executor_slots",
            lambda s=server: float(s.handlers.capacity), **labels)
        registry.probe(
            "hbase_regions",
            lambda s=server: len(s.regions), **labels)
        register_lsm_engine(registry, lambda: server.regions.values(),
                            **labels)

    @classmethod
    def default_profile(cls) -> ServiceProfile:
        return ServiceProfile(
            read_cpu=2600e-6,
            write_cpu=1250e-6,
            scan_base_cpu=2600e-6,
            scan_per_record_cpu=18e-6,
            client_cpu=30e-6,
        )

    def min_window(self, connections: int) -> tuple[int, int]:
        """Buffered writes need several flush cycles in the window."""
        if not self.client_buffering:
            return super().min_window(connections)
        cycle = self.WRITE_BUFFER_OPS + 2
        return connections * cycle, connections * self.WRITE_BUFFER_OPS * 3

    def region_of(self, key: str) -> int:
        """Region by key range: uniform key space split into equal slices."""
        n_regions = self.n_regions
        region = int(lex_position(key) * n_regions)
        return region if region < n_regions else n_regions - 1

    def server_of_region(self, region_id: int) -> RegionServer:
        """The region server currently hosting ``region_id``."""
        return self.region_servers[self._assignment[region_id]]

    def homes(self, key: str) -> list[int]:
        """The server hosting the key's region (its data is in HDFS; a
        region reassigns off a dead server, so HBase declares no loss)."""
        return [self._assignment[self.region_of(key)]]

    def overload_channels(self):
        """Admission control caps each region server's handler queue.

        This is the ``hbase.ipc.server.max.callqueue`` analogue: a call
        arriving at a full handler call-queue gets an immediate
        "server too busy" rejection instead of queueing unboundedly.
        """
        return [server.handlers for server in self.region_servers]

    #: Sim-seconds before the master declares a region server dead and
    #: reassigns its regions (ZooKeeper session timeout, compressed to
    #: the simulation's scaled-down time base).
    REGION_REASSIGN_DELAY_S = 0.75

    @classmethod
    def retry_policy(cls) -> RetryPolicy:
        """The HBase client rides out reassignment with patient retries."""
        return RetryPolicy(max_attempts=5, backoff_s=0.1)

    def on_node_down(self, node: Node) -> None:
        """Master failure handling: reassign the dead server's regions.

        The master notices the lost ZooKeeper session after
        :attr:`REGION_REASSIGN_DELAY_S` and moves every region hosted by
        the dead server onto the survivors; region data lives in HDFS,
        so the new hosts replay the WAL/HFiles rather than losing state.
        Until reassignment completes, operations on those regions fail
        (and the client's retry policy is what bridges the gap).
        """
        for server in self.region_servers:
            if server.node is node:
                self.sim.process(self._master_reassign(server),
                                 name="hbase-master-reassign")
                return

    def _master_reassign(self, dead: RegionServer):
        yield self.sim.timeout(self.REGION_REASSIGN_DELAY_S)
        if dead.node.up:  # the server came back before the timeout
            return
        survivors = [s for s in self.region_servers if s.node.up]
        if not survivors:
            return
        moved = sorted(rid for rid, idx in self._assignment.items()
                       if idx == dead.index)
        for offset, region_id in enumerate(moved):
            target = survivors[offset % len(survivors)]
            engine = dead.regions.pop(region_id)
            target.add_region(region_id, engine)
            self._assignment[region_id] = target.index
            self.regions_reassigned += 1
            # WAL split + HFile open on the new host: a sequential
            # re-read of the region's recent on-disk state.
            yield from target.node.disk.read(
                max(4096, engine.disk_bytes // 4), sequential=True)

    def on_node_up(self, node: Node) -> None:
        """A restarted region server rejoins empty-handed.

        Real HBase leaves moved regions where they are until the
        balancer runs; the restarted server simply becomes available
        for future assignments, so there is nothing to do here.
        """

    def engine_of(self, region_id: int) -> LSMEngine:
        """The LSM store behind ``region_id``."""
        return self.server_of_region(region_id).regions[region_id]

    # -- topology: a new region server, and the balancer ----------------------

    def _add_server(self, node: Node, index: int) -> None:
        self.region_servers.append(RegionServer(self, node, index))

    def _rebalance(self) -> list[tuple[int, int, int]]:
        """Restore the balanced round-robin assignment over members.

        Region data lives in HDFS, so a move is a META rewrite plus the
        new host opening the region's files — billed as a stream of the
        region's recent on-disk state from the old host's DataNode.
        The region count stays fixed (the load pattern never splits),
        and a put routed under the old META is retried at the region's
        current host when it executes, so no catch-up pass has anything
        to move.
        """
        members = self._members
        moved: dict[tuple[int, int], int] = {}
        for region_id in range(self.n_regions):
            want = members[region_id % len(members)]
            have = self._assignment[region_id]
            if have == want:
                continue
            engine = self.region_servers[have].regions.pop(region_id)
            self.region_servers[want].add_region(region_id, engine)
            self._assignment[region_id] = want
            self.regions_reassigned += 1
            pair = (have, want)
            moved[pair] = moved.get(pair, 0) + max(4096,
                                                   engine.disk_bytes // 4)
        return [(src, dst, nbytes)
                for (src, dst), nbytes in sorted(moved.items())]

    # -- deployment ----------------------------------------------------------

    def load(self, records: Iterable[tuple[str, tuple]]) -> None:
        """Bulk load leaving a few store files per region (as a real
        load phase does before a major compaction is scheduled)."""
        # Nothing reassigns a region while the load runs.
        load_lsm_rounds(records,
                        [self.engine_of(rid) for rid in range(self.n_regions)],
                        lambda keys: [(self.region_of(key),) for key in keys])

    def session(self, client_node: Node, index: int) -> "HBaseSession":
        return HBaseSession(self, client_node, index)

    def warm_caches(self) -> None:
        for server in self.region_servers:
            cache = server.node.page_cache
            for engine in server.regions.values():
                for block in engine.iter_blocks():
                    cache.insert(block)

    def disk_bytes_per_server(self) -> list[int]:
        out = []
        for server in self.region_servers:
            total = sum(e.disk_bytes for e in server.regions.values())
            out.append(total)
        return out

    # -- region ---------------------------------------------------------------

    def _with_handler(self, server: RegionServer, body):
        """Run ``body`` while holding one of the server's RPC handlers:
        the generator of the pool's
        :meth:`~repro.sim.resources.Resource.hold`, whose ``wait`` span
        makes the choke point behind HBase's read latencies visible.
        """
        return server.handlers.hold(
            body, name=server.handler_span,
            attrs={"handlers": server.handlers.capacity})

    def _persist_bill(self, server: RegionServer, region_id: int, bill):
        """Apply an engine IoBill through HDFS (async where HBase is).

        Spawned detached: background persistence belongs to the server,
        not the triggering request, so it must outlive its deadline.
        """
        sim = self.sim
        if bill.wal_sync_bytes:
            sim.detached(self.hdfs.append(
                server.wal_path, bill.wal_sync_bytes, server.node,
                sync=True), name="hbase-wal")
        flush_bytes = bill.flush_write_bytes + bill.compaction_io_bytes
        if flush_bytes:
            sim.detached(self.hdfs.append(
                self._hfile_paths[region_id], flush_bytes, server.node,
                sync=True), name="hbase-flush")

    def _serve_read(self, region_id: int, key: str):
        server = self.server_of_region(region_id)
        self.note_node_op(server.index)
        yield from server.node.cpu(self.profile.read_cpu)
        result = self.engine_of(region_id).get(key)
        yield from self.hdfs.read(self._hfile_paths[region_id],
                                  result.bill.blocks, 4096, server.node)
        return result.row

    def _serve_multi_put(self, server: RegionServer,
                         puts: list[tuple[str, tuple]]):
        for key, row in puts:
            self.note_node_op(server.index)
            yield from server.node.cpu(self.profile.write_cpu)
            region_id = self.region_of(key)
            # The client routed this put under an old META view; if the
            # balancer moved the region while the RPC was in flight, the
            # stale host answers NotServingRegionException and the put is
            # retried at the region's current host — resolved here, at
            # execution time, so the mutation lands in the live region.
            owner = self.server_of_region(region_id)
            bill = owner.regions[region_id].put(key, row)
            self._persist_bill(owner, region_id, bill)
        return len(puts)

    def _serve_scan(self, region_id: int, start_key: str, count: int):
        server = self.server_of_region(region_id)
        self.note_node_op(server.index)
        yield from server.node.cpu(
            self.profile.scan_base_cpu
            + count * self.profile.scan_per_record_cpu
        )
        rows, bill = self.engine_of(region_id).scan(start_key, count)
        # A sequential scanner: few seeks.
        yield from self.hdfs.read(self._hfile_paths[region_id],
                                  bill.blocks[:8], 4096, server.node)
        return rows


class HBaseSession(StoreSession):
    """An HTable handle with a client-side write buffer."""

    def __init__(self, store: HBaseStore, client_node: Node, index: int):
        super().__init__(store, client_node, index)
        self._buffer: list[tuple[str, tuple]] = []

    def _rpc(self, server: RegionServer, body, request_bytes: int,
             response_bytes: int):
        """One RPC to ``server`` with ``body`` run under one of its
        handlers, and no client CPU: a buffer flush and a scan's
        continuation leg.  A client call pays the driver's CPU through
        the one client hop, :meth:`_call_server`."""
        store = self.store
        return store.cluster.network.rpc(
            self.client, server.node, request_bytes, response_bytes,
            store._with_handler(server, body))

    def read(self, key: str):
        store = self.store
        region_id = store.region_of(key)
        server = store.server_of_region(region_id)
        return self._call_server(
            server.index,
            store._with_handler(server, store._serve_read(region_id, key)),
            store.request_bytes(key), store.response_bytes(1),
            region=region_id, server=server.node.name)

    def insert(self, key: str, row: tuple):
        store = self.store
        if not store.client_buffering:
            server = store.server_of_region(store.region_of(key))
            result = yield from self._call_server(
                server.index, store._with_handler(
                    server, store._serve_multi_put(server, [(key, row)])),
                store.request_bytes(key, row),
                store.response_bytes(0))
            return result == 1
        # Client-buffered path: ack locally, ship a multi-put when full.
        # The buffer holds the put's row as HTable's holds a Put; the
        # region's engine keeps that row when the multi-put lands.
        yield from self.client.cpu(store.BUFFERED_PUT_CPU)
        self._buffer.append((key, row))
        if len(self._buffer) >= store.WRITE_BUFFER_OPS:
            yield from self.flush_buffer()
        return True

    def flush_buffer(self):
        """Ship the buffered puts, grouped by region server."""
        store = self.store
        puts, self._buffer = self._buffer, []
        by_server: dict[int, list[tuple[str, tuple]]] = {}
        for key, row in puts:
            server = store.server_of_region(store.region_of(key))
            by_server.setdefault(server.index, []).append((key, row))
        batches = []
        for server_index, group in by_server.items():
            server = store.region_servers[server_index]
            payload = sum(store.request_bytes(key, row)
                          for key, row in group)
            batches.append(store.sim.process(self._rpc(
                server, store._serve_multi_put(server, group),
                payload, store.response_bytes(0),
            ), name="hbase-multiput"))
        if batches:
            yield store.sim.all_of(batches)

    def scan(self, start_key: str, count: int):
        store = self.store
        region_id = store.region_of(start_key)
        server = store.server_of_region(region_id)
        rows = yield from self._call_server(
            server.index, store._with_handler(
                server, store._serve_scan(region_id, start_key, count)),
            store.request_bytes(start_key), store.response_bytes(count),
            region=region_id, server=server.node.name)
        # A scan near the end of a region continues in the next region.
        if len(rows) < count and region_id + 1 < store.n_regions:
            next_region = region_id + 1
            next_server = store.server_of_region(next_region)
            more = yield from self._rpc(
                next_server,
                store._serve_scan(next_region, start_key,
                                  count - len(rows)),
                store.request_bytes(start_key),
                store.response_bytes(count - len(rows)),
            )
            rows = list(rows) + list(more)
        return rows[:count]

    def delete(self, key: str):
        store = self.store
        region_id = store.region_of(key)
        server = store.server_of_region(region_id)

        def body():
            yield from server.node.cpu(store.profile.write_cpu)
            bill = store.engine_of(region_id).delete(key)
            store._persist_bill(server, region_id, bill)
            return True

        return self._call_server(
            server.index, store._with_handler(server, body()),
            store.request_bytes(key), store.response_bytes(0))
