"""The MySQL model: InnoDB B+tree shards behind a JDBC sharding client.

Architecture per Sections 4.6 / 5.1 / 5.4-5.5, version 5.5.17 semantics:

* independent single-node MySQL servers; the RDBMS YCSB client shards by
  consistent hashing over JDBC and balances "much better than the Jedis
  library" — modelled by a high-virtual-node ring;
* the storage engine is InnoDB: a clustered B+tree whose pages flow
  through the buffer pool (the node page cache), plus a statement-based
  binlog whose group commit is asynchronous;
* point operations scale almost linearly; the gentle flattening beyond
  8 nodes comes from the shared client machines saturating (Section 5.1);
* scans are the weak spot (Sections 5.4-5.5).  Two mechanisms:

  1. **sharded fan-out without a server-side limit** — the client's scan
     "retrieves all records with a key equal or greater than the start
     key"; on a single node the driver's ``maxRows`` bounds the result,
     but the sharded merge path streams each shard's whole tail through
     the client (Figure 13's explosion beyond two nodes);
  2. **MVCC purge lag** — with a high insert rate InnoDB's purge thread
     falls behind and consistent-read scans must visit an ever-growing
     backlog of record versions, which collapses Workload RSW even on a
     single node (the paper measures 20 ops/s; Section 5.5).
"""

from __future__ import annotations

import math
from itertools import chain, islice
from typing import Iterable

from repro.keyspace import lex_position as key_position
from repro.sim.cluster import Cluster, Node
from repro.storage.btree import BPlusTree
from repro.storage.encoding import MySQLDiskUsage, encode_binlog_event
from repro.storage.record import (APM_SCHEMA, Record, RecordSchema,
                                  merge_runs)
from repro.stores.base import (ServiceProfile, Store, StoreSession,
                               load_batches)
from repro.stores.sharding import ClientRingRouting, jdbc_ring

__all__ = ["MySQLStore", "MySQLSession"]


class MySQLStore(ClientRingRouting, Store):
    """Client-sharded single-node MySQL servers (InnoDB)."""

    name = "mysql"
    supports_scans = True

    #: CPU per tail row examined/streamed by an un-LIMITed sharded scan.
    TAIL_ROW_CPU = 2e-6
    #: Wire bytes per tail row streamed to the client.
    TAIL_ROW_BYTES = 100
    #: CPU per stale record version a consistent read must skip.  The
    #: paper ran each point for 600 s; our windows are seconds long, so
    #: the per-version cost is scaled up to show the same purge-lag
    #: trajectory within the shorter window (see DESIGN.md).
    MVCC_VERSION_CPU = 5e-5
    #: Versions/second the purge thread can clean (per shard).
    PURGE_RATE = 1000.0
    #: Keys per B+tree page.
    BTREE_ORDER = 100

    def __init__(self, cluster: Cluster, schema: RecordSchema = APM_SCHEMA,
                 profile: ServiceProfile | None = None,
                 binlog_enabled: bool = True):
        super().__init__(cluster, schema, profile)
        self.tables: list[BPlusTree] = []
        self.binlog_enabled = binlog_enabled
        self.binlog_bytes: list[int] = []
        self._usage = MySQLDiskUsage(binlog_enabled=False)
        # MVCC purge accounting, per shard: versions created minus purged.
        self._versions_created: list[float] = []
        self._purged_until: list[float] = []
        for index, node in enumerate(cluster.servers):
            self._add_server(node, index)
        self._rebuild_routing()

    def _add_server(self, node: Node, index: int) -> None:
        self.tables.append(BPlusTree(order=self.BTREE_ORDER))
        self.binlog_bytes.append(0)
        self._versions_created.append(0.0)
        self._purged_until.append(0.0)

    def _rebuild_routing(self) -> None:
        """Point the JDBC ring at the current member servers."""
        self._route(jdbc_ring)

    def _attach_node_metrics(self, registry, index: int) -> None:
        """Add binlog volume, MVCC purge backlog and table size probes."""
        node = self.cluster.servers[index]
        labels = {"store": self.name, "node": node.name}
        registry.meter("mysql_binlog_bytes",
                       lambda i=index: self.binlog_bytes[i], **labels)
        registry.probe("mysql_purge_backlog",
                       lambda i=index: self._version_backlog(i), **labels)
        registry.probe("mysql_table_rows",
                       lambda t=self.tables[index]: len(t), **labels)

    @classmethod
    def default_profile(cls) -> ServiceProfile:
        return ServiceProfile(
            read_cpu=340e-6,
            write_cpu=360e-6,
            scan_base_cpu=350e-6,
            scan_per_record_cpu=4e-6,
            # The thread already holds its core when the timed call
            # starts; all client work is dispatch-side.
            client_cpu=0.0,
            # JDBC result-set marshalling and the sharding layer run on
            # the client machines, outside the timed call.
            dispatch_cpu=240e-6,
            # "each client thread [manages] a JDBC connection with each
            # of the servers" (Section 6): connection management cost on
            # the client grows with the connection fleet, flattening the
            # curve beyond 8 nodes while server-side latency keeps
            # *dropping* (Section 5.6's observation).
            client_connection_overhead=9e-4,
        )

    @classmethod
    def clients_for(cls, n_servers: int, servers_per_client: int) -> int:
        """The JDBC client is heavy; the paper drove MySQL (like Redis)
        with a richer client-to-server ratio to approach saturation."""
        return max(1, math.ceil(2 * n_servers / 3))

    def declared_loss(self, node: Node) -> str:
        """Client-sharded, no replication (Section 4.5): losing a shard
        server for good loses that shard's rows by design."""
        return ("hard shard loss: client-sharded MySQL keeps a single "
                "copy per shard")

    #: Admission control is the JDBC connection pool, per shard: bounded
    #: in-flight requests per server, the (N+1)-th attempt failing
    #: immediately like an exhausted pool's ``getConnection``.
    connection_pool = "mysql-pool"

    # -- topology: a JDBC ring remap; rows are dumped and loaded into new shards

    def _shard_entries(self):
        return enumerate(table.items() for table in self.tables)

    def _move_entry(self, key: str, value, src: int, dst: int):
        self.tables[src].remove(key)
        self.tables[dst].put(key, value)
        # The moved rows' stale versions stay behind on the
        # source until its purge thread catches up.
        return src, dst, int(self._usage.bytes_per_record(self.schema))

    # -- deployment ----------------------------------------------------------

    def load(self, records: Iterable[Record]) -> None:
        tables, binlog_bytes = self.tables, self.binlog_bytes
        records = iter(records)
        first = next(records, None)
        if first is None:
            return
        # Every loaded record's binlog event is as long as the first's.
        event = len(encode_binlog_event(first)) if self.binlog_enabled else 0
        for key, row, shard in load_batches(chain((first,), records),
                                            self.shard_of_many, self.schema):
            tables[shard].put(key, row)
            binlog_bytes[shard] += event

    def session(self, client_node: Node, index: int) -> "MySQLSession":
        return MySQLSession(self, client_node, index)

    def warm_caches(self) -> None:
        for shard, table in enumerate(self.tables):
            cache = self.cluster.servers[shard].page_cache
            for page_id in table.leaf_page_ids():
                cache.insert(self._leaf_block(shard, page_id))

    def disk_bytes_per_server(self) -> list[int]:
        per_row = self._usage.bytes_per_record(self.schema)
        return [
            int(len(table) * per_row) + binlog
            for table, binlog in zip(self.tables, self.binlog_bytes)
        ]

    # -- MVCC purge -----------------------------------------------------------

    def _version_backlog(self, shard: int) -> float:
        """Unpurged record versions on ``shard`` at the current sim time."""
        purged = min(self._versions_created[shard],
                     self.sim.now * self.PURGE_RATE)
        return max(0.0, self._versions_created[shard] - purged)

    # -- server ---------------------------------------------------------------

    def _leaf_block(self, shard: int, page_id: int) -> tuple:
        return ("innodb", shard, page_id)

    def _apply_read(self, shard: int, key: str):
        self.note_node_op(shard)
        node = self.cluster.servers[shard]
        yield from node.cpu(self.server_cost(self.profile.read_cpu))
        value, path = self.tables[shard].get(key)
        yield from self.cached_read_io(
            node, [self._leaf_block(shard, path.page_ids[-1])]
        )
        return value

    def _apply_write(self, shard: int, key: str, row: tuple):
        # A write routed under the old JDBC ring lands after the reshard
        # copied its rows away; the statement executes against the
        # current ring owner (the sharding driver's remap-and-retry) so
        # the acknowledged row is never stranded on the old shard.
        shard = self.shard_of(key)
        self.note_node_op(shard)
        node = self.cluster.servers[shard]
        yield from node.cpu(self.server_cost(self.profile.write_cpu))
        table = self.tables[shard]
        existing, path = table.get(key)
        table.put(key, row if existing is None
                  else self.schema.overlay(existing, row))
        self._versions_created[shard] += 1
        yield from self.cached_read_io(
            node, [self._leaf_block(shard, path.page_ids[-1])]
        )
        if self.binlog_enabled:
            event = 60 + len(key) + self.record_bytes(row) * 2
            self.binlog_bytes[shard] += event
            # Binlog group commit: buffered append, drained asynchronously.
            yield from node.disk.write(event, sequential=True, sync=False)
        return True

    def _apply_local_scan(self, shard: int, start_key: str, count: int):
        """Single-shard scan with an effective LIMIT (driver maxRows).

        Pays the MVCC purge-lag penalty: the consistent read must skip the
        shard's unpurged version backlog inside the scanned range.
        """
        self.note_node_op(shard)
        node = self.cluster.servers[shard]
        backlog = self._version_backlog(shard)
        mvcc_cpu = backlog * self.MVCC_VERSION_CPU
        yield from node.cpu(self.server_cost(
            self.profile.scan_base_cpu
            + count * self.profile.scan_per_record_cpu
            + mvcc_cpu
        ))
        rows, path = self.tables[shard].scan(start_key, count)
        # Descent pages (internal nodes) stay in the buffer pool; only
        # the chained leaf pages flow through the cache model.
        leaves = path.page_ids[self.tables[shard].height - 1:]
        blocks = [self._leaf_block(shard, p) for p in leaves[:4]]
        yield from self.cached_read_io(node, blocks)
        return rows

    def _apply_tail_scan(self, shard: int, start_key: str, count: int):
        """Sharded scan leg: stream the shard's whole tail (no LIMIT)."""
        self.note_node_op(shard)
        node = self.cluster.servers[shard]
        tail_rows = int(len(self.tables[shard])
                        * (1.0 - key_position(start_key)))
        backlog = self._version_backlog(shard)
        yield from node.cpu(
            self.profile.scan_base_cpu
            + tail_rows * self.TAIL_ROW_CPU
            + backlog * self.MVCC_VERSION_CPU
        )
        rows, path = self.tables[shard].scan(start_key, count)
        leaves = path.page_ids[self.tables[shard].height - 1:]
        blocks = [self._leaf_block(shard, p) for p in leaves[:4]]
        yield from self.cached_read_io(node, blocks)
        return rows, tail_rows

    def _apply_delete(self, shard: int, key: str):
        shard = self.shard_of(key)  # ring remap-and-retry, as for writes
        self.note_node_op(shard)
        node = self.cluster.servers[shard]
        yield from node.cpu(self.profile.write_cpu)
        removed, __ = self.tables[shard].remove(key)
        return removed


class MySQLSession(StoreSession):
    """One YCSB thread holding a JDBC connection per shard: point
    operations are the inherited client-sharded call."""

    def scan(self, start_key: str, count: int):
        store = self.store
        members = store.members()
        if len(members) == 1:
            only = members[0]
            rows = yield from self._call_server(
                only, store._apply_local_scan(only, start_key, count),
                store.request_bytes(start_key), store.response_bytes(count),
                **{self.route_label: only},
            )
            return rows
        # Sharded path: every shard streams its un-LIMITed tail; the
        # client merges and truncates.  The per-shard legs run in
        # parallel but the result streams serialise on the client NIC.
        legs = [
            self.sim_process_for_shard(shard, start_key, count)
            for shard in members
        ]
        results = yield store.sim.all_of(legs)
        # Client-side merge cost over everything that arrived.
        yield from self.client.cpu(
            sum(tail_rows for __, tail_rows in results) * 0.5e-6)
        # One row a key, the last leg's: a reshard can move a row between
        # two legs' reads, and then both shards stream it.
        return [(key, rows[-1]) for key, rows in islice(
            merge_runs(rows for rows, __ in results), count)]

    def sim_process_for_shard(self, shard: int, start_key: str, count: int):
        """One shard's scan leg as a spawned process."""
        store = self.store

        def leg():
            tail_estimate = int(
                len(store.tables[shard]) * (1.0 - key_position(start_key))
            )
            response = (store.response_bytes(count)
                        + tail_estimate * store.TAIL_ROW_BYTES)
            result = yield from store.cluster.network.rpc(
                self.client, store.cluster.servers[shard],
                store.request_bytes(start_key), response,
                store._apply_tail_scan(shard, start_key, count),
            )
            return result

        return store.sim.process(leg(), name=f"mysql-scan-leg-{shard}")
