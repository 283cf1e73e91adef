"""The Cassandra model: a symmetric token ring over an LSM engine.

Architecture per Section 4.2 of the paper, version 1.0.0-rc2 semantics:

* every node is equal (no master); clients round-robin requests over all
  nodes, and the receiving *coordinator* forwards each operation to the
  token owner (RandomPartitioner, optimal tokens assigned as in Section 6);
* writes append to a commit log (periodic group commit — they do not wait
  for the disk) and a memtable; flushes and size-tiered compactions run in
  the background, contending for the data disk;
* reads consult the memtable plus every Bloom-passing SSTable; on the
  disk-bound cluster those SSTable blocks miss the page cache and pay
  random reads — the mechanism behind Figure 18's read/write asymmetry.

Cost calibration targets the paper's single-node measurements: ~25 K ops/s
for Workload R on Cluster M with read latencies that are queueing-dominated
under maximum throughput (Section 5.1).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.sim.cluster import Cluster, Node
from repro.sim.faults import OverloadError, UnavailableError
from repro.storage.lsm import LSMConfig, LSMEngine
from repro.storage.record import APM_SCHEMA, RecordSchema
from repro.stores.base import (
    RetryPolicy,
    ServiceProfile,
    Store,
    StoreSession,
    load_lsm_rounds,
    newest_cell,
)
from repro.stores.sharding import TokenRing
from repro.trace.span import span

__all__ = ["CassandraStore", "CassandraSession"]


class CassandraStore(Store):
    """A ring of symmetric LSM nodes."""

    name = "cassandra"
    supports_scans = True

    #: CPU the coordinator spends parsing/forwarding a request it does
    #: not own (thrift deserialisation, routing, response relay).
    COORDINATOR_CPU = 90e-6

    def __init__(self, cluster: Cluster, schema: RecordSchema = APM_SCHEMA,
                 lsm_config: Optional[LSMConfig] = None,
                 profile: Optional[ServiceProfile] = None,
                 commitlog_sync: str = "periodic",
                 compression_ratio: float = 1.0,
                 replication_factor: int = 1,
                 consistency_level: str = "one",
                 read_consistency: str = "one"):
        super().__init__(cluster, schema, profile)
        if commitlog_sync not in ("periodic", "batch"):
            raise ValueError(
                f"commitlog_sync must be 'periodic' or 'batch', "
                f"got {commitlog_sync!r}"
            )
        if not 0.1 <= compression_ratio <= 1.0:
            raise ValueError("compression_ratio must be in [0.1, 1.0]")
        if replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if consistency_level not in ("one", "quorum", "all"):
            raise ValueError(
                "consistency_level must be 'one', 'quorum' or 'all'"
            )
        if read_consistency not in ("one", "quorum", "all"):
            raise ValueError(
                "read_consistency must be 'one', 'quorum' or 'all'"
            )
        #: Replication factor (the paper ran RF=1 and deferred the
        #: replication study to future work — Section 8).
        self.replication_factor = min(replication_factor,
                                      cluster.n_servers)
        if self.replication_factor != 1:
            self.reshard_refusal = (
                "online topology changes are modelled for the paper's "
                "replication_factor=1 deployment only")
        #: How many replica acknowledgements a write waits for.
        self.consistency_level = consistency_level
        #: How many replicas a read consults.  The paper's setting is
        #: ONE (first live replica); QUORUM/ALL fan the read out and
        #: return the newest cell by write timestamp — the R knob of
        #: the R/W/N quorum sweep.
        self.read_consistency = read_consistency
        #: "periodic" (the default, writes never wait for the disk) or
        #: "batch" (every write waits for its commit-log fsync) — the
        #: group-commit ablation.
        self.commitlog_sync = commitlog_sync
        #: SSTable block compression (paper future work): < 1.0 shrinks
        #: on-disk bytes but charges compress/decompress CPU per op.
        self.compression_ratio = compression_ratio
        group = 1 if commitlog_sync == "batch" else None
        if lsm_config is None:
            lsm_config = (LSMConfig(group_commit_ops=group) if group
                          else LSMConfig())
        self._lsm_config = lsm_config
        self.engines: list[LSMEngine] = []
        for index, node in enumerate(cluster.servers):
            self._add_server(node, index)
        self._rebuild_routing()
        #: Hinted handoff queues: mutations for a down replica, held by
        #: the coordinator side and replayed when the node returns
        #: (Cassandra's standard path for writes during an outage).
        self.hints: dict[int, list[tuple[str, tuple, int]]] = {}
        self.hints_queued = 0
        self.hints_replayed = 0
        #: Replica fan-out counter; set by :meth:`attach_metrics`.
        self._fanout = None

    def _add_server(self, node: Node, index: int) -> None:
        self.engines.append(
            LSMEngine(self._lsm_config, name=f"cassandra-{index}",
                      schema=self.schema))

    def _rebuild_routing(self) -> None:
        """Recompute token assignment over the current members.

        The ring always carries one (optimal) token per member;
        ``_ring_map`` translates a ring slot to its server index, so
        slots stay dense while server indices stay stable.
        """
        self.ring = TokenRing(len(self._members))
        self._ring_map = list(self._members)

    def owner_of(self, key: str) -> int:
        """Server index of the token owner of ``key``."""
        return self._ring_map[self.ring.owner_of(key)]

    def replicas_of(self, key: str,
                    replication_factor: int = 1) -> list[int]:
        """Server indices of the replica set of ``key``, owner first."""
        if replication_factor == 1:  # the paper's setting: the owner alone
            return [self.owner_of(key)]
        return [self._ring_map[slot]
                for slot in self.ring.replicas_of(key, replication_factor)]

    def homes(self, key: str) -> list[int]:
        return self.replicas_of(key, self.replication_factor)

    def homes_many(self, keys: list[str]) -> list[list[int]]:
        """``homes`` of every key: one batched hash onto the ring's slots,
        then each slot's replica set, walked once a slot, not a key."""
        ring, ring_map = self.ring, self._ring_map
        replicas = [[ring_map[slot] for slot in
                     ring.walk(primary, self.replication_factor)]
                    for primary in range(ring.n_nodes)]
        return [replicas[primary] for primary in ring.owner_of_many(keys)]

    def attach_metrics(self, registry) -> None:
        """Add LSM engine probes, hint meters and the fan-out counter."""
        super().attach_metrics(registry)
        registry.meter("cassandra_hints_queued_total",
                       lambda: self.hints_queued, store=self.name)
        registry.meter("cassandra_hints_replayed_total",
                       lambda: self.hints_replayed, store=self.name)
        self._fanout = registry.counter("store_replica_fanout_total",
                                        store=self.name)

    def _attach_node_metrics(self, registry, index: int) -> None:
        from repro.metrics.instrument import register_lsm_engine
        engine = self.engines[index]
        register_lsm_engine(registry, lambda: (engine,), store=self.name,
                            node=self.cluster.servers[index].name)

    #: CPU per operation spent in the (de)compression codec when SSTable
    #: compression is enabled.
    COMPRESSION_CPU = 22e-6

    @classmethod
    def default_profile(cls) -> ServiceProfile:
        return ServiceProfile(
            read_cpu=290e-6,
            write_cpu=240e-6,
            scan_base_cpu=900e-6,
            scan_per_record_cpu=14e-6,
            client_cpu=25e-6,
            # Thrift thread-per-connection + CMS GC pressure: each open
            # connection costs ~0.06% extra CPU per op, which bends the
            # 1536-connection 12-node point to the paper's ~5-6x speed-up.
            per_connection_overhead=6e-4,
        )

    # -- deployment ----------------------------------------------------------

    def load(self, records: Iterable[tuple[str, tuple]]) -> None:
        """Functional load: route each record to its replica set.

        Like a real bulk load under size-tiered compaction, the load
        leaves a handful of SSTables per node rather than one fully
        compacted run — reads must merge across them (the read
        amplification the Bloom-filter ablation measures).
        """
        load_lsm_rounds(records, self.engines, self.homes_many)

    def session(self, client_node: Node, index: int) -> "CassandraSession":
        return CassandraSession(self, client_node, index)

    @staticmethod
    def _acks_for(level: str, replication_factor: int) -> int:
        if level == "one":
            return 1
        if level == "quorum":
            return replication_factor // 2 + 1
        return replication_factor

    def required_acks(self) -> int:
        """Replica acknowledgements a write waits for (consistency level)."""
        return self._acks_for(self.consistency_level,
                              self.replication_factor)

    def required_read_acks(self) -> int:
        """Replica responses a read waits for (read consistency)."""
        return self._acks_for(self.read_consistency,
                              self.replication_factor)

    @classmethod
    def retry_policy(cls) -> RetryPolicy:
        """The driver reroutes fast: three tries, short backoff."""
        return RetryPolicy(max_attempts=3, backoff_s=0.01)

    # -- failure handling ------------------------------------------------------

    def live_replica_of(self, key: str) -> int:
        """The first live replica of ``key`` — the read failover path.

        Reads run at consistency ONE (the paper's setting): any live
        replica serves.  With every replica down the operation is
        unavailable — at RF=1 a single crash therefore blacks out that
        token range, exactly the single-copy semantics the paper ran.
        """
        copies = self.replication_factor
        return self.live_replicas(
            self.replicas_of(key, copies), 1,
            lambda __: f"all {copies} replicas of {key!r} are down")[0]

    def queue_hint(self, replica: int, key: str, row: tuple,
                   version: int = 0) -> None:
        """Store a hinted mutation for a down replica."""
        self.hints.setdefault(replica, []).append((key, row, version))
        self.hints_queued += 1

    def on_node_up(self, node: Node) -> None:
        """Replay hinted handoffs into a freshly restarted replica."""
        for index, server in enumerate(self.cluster.servers):
            if server is node:
                break
        else:
            return
        pending = self.hints.pop(index, [])
        if pending:
            self._replay_hints(index, pending)

    def _replay_hints(self, index: int,
                      pending: list[tuple[str, tuple, int]]) -> None:
        """Apply ``pending`` hinted mutations to replica ``index``."""
        node = self.cluster.servers[index]
        flush_bytes = 0
        for key, row, version in pending:
            bill = self.engines[index].put(key, row)
            self._stamp(index, key, version)
            flush_bytes += (bill.wal_sync_bytes + bill.flush_write_bytes
                            + bill.compaction_io_bytes)
            self.hints_replayed += 1
        if flush_bytes:
            self.sim.detached(
                self._background_io(node, int(flush_bytes
                                              * self.compression_ratio)),
                name="hint-replay",
            )

    def declared_loss(self, node: Node) -> Optional[str]:
        """By-design data loss when ``node`` never comes back.

        At the paper's RF=1 a crashed node *is* its token range — no
        other copy exists, so the chaos controller declares the loss in
        the audit manifest.  With replication the data must survive on
        the other replicas, so nothing is declared (an unreadable acked
        write is then a genuine durability violation)."""
        if self.replication_factor == 1:
            return "RF=1 token range: the crashed node held the only copy"
        return None

    def warm_caches(self) -> None:
        for i, engine in enumerate(self.engines):
            cache = self.cluster.servers[i].page_cache
            for block in engine.iter_blocks():
                cache.insert(block)

    def disk_bytes_per_server(self) -> list[int]:
        return [int(engine.disk_bytes * self.compression_ratio)
                for engine in self.engines]

    # -- topology: token handoff streams a bootstrapping node its ranges ------
    #
    # The ring re-splits into one optimal token per member (the paper's
    # hand-assigned-token discipline, Section 6) and every key whose
    # token owner changed streams from its old owner — real Cassandra's
    # bootstrap / ``move`` / decommission flow.

    def _shard_entries(self):
        for src, engine in enumerate(self.engines):
            yield src, list(engine.items())

    _shard_of = owner_of

    def _move_entry(self, key: str, row: tuple, src: int, dst: int):
        self.engines[dst].put(key, row)
        self.engines[src].delete(key)
        return src, dst, int(
            (self.schema.key_length + self.schema.raw_value_bytes)
            * self.compression_ratio) or 1

    # -- server-side handlers (run on the owner node) -------------------------

    def _background_io(self, node: Node, nbytes: int):
        """Flush/compaction IO contends with foreground ops on the disk."""
        yield from node.disk.write(nbytes, sequential=True, sync=True)

    def _maybe_shed(self, owner: int) -> None:
        """Load shedding at the replica: reject when the queue is deep.

        Cassandra's StorageProxy drops mutations whose replica stage
        backlog exceeds its bound; the model sheds at the owner node's
        CPU queue, the stage where replica work serialises.
        """
        policy = self.overload
        if policy is None or policy.max_queue is None:
            return
        queue = self.cluster.servers[owner].cpus.queue_length
        if queue >= policy.max_queue:
            self.shed_ops += 1
            raise OverloadError(
                f"cassandra-{owner} replica queue full "
                f"({queue} >= {policy.max_queue})")

    def _apply_write(self, owner: int, key: str, row: tuple,
                     version: int = 0):
        if self.replication_factor == 1:
            # A write routed before a token move reaches the old owner
            # after its range streamed away; the replica forwards it to
            # the current token owner (the pending-range write real
            # Cassandra performs during bootstrap/decommission).  With
            # RF > 1 ``owner`` is a deliberate replica choice — leave it.
            owner = self.owner_of(key)
        self._maybe_shed(owner)
        self.note_node_op(owner)
        node = self.cluster.servers[owner]
        write_cpu = self.profile.write_cpu
        if self.compression_ratio < 1.0:
            write_cpu += self.COMPRESSION_CPU
        yield from node.cpu(self.server_cost(write_cpu))
        bill = self.engines[owner].put(key, row)
        self._stamp(owner, key, version)
        if bill.wal_sync_bytes:
            if self.commitlog_sync == "batch":
                # commitlog_sync: batch — the write waits for the fsync.
                yield from node.disk.write(bill.wal_sync_bytes,
                                           sequential=True, sync=True)
            else:
                # commitlog_sync: periodic — the write does not wait.
                self.sim.detached(
                    self._background_io(node, bill.wal_sync_bytes),
                    name="commitlog-sync",
                )
        background = int(
            (bill.flush_write_bytes + bill.compaction_io_bytes)
            * self.compression_ratio
        )
        if background:
            self.sim.detached(
                self._background_io(node, background), name="flush"
            )
        return True

    def _apply_read(self, owner: int, key: str):
        self._maybe_shed(owner)
        self.note_node_op(owner)
        node = self.cluster.servers[owner]
        read_cpu = self.profile.read_cpu
        if self.compression_ratio < 1.0:
            read_cpu += self.COMPRESSION_CPU
        yield from node.cpu(self.server_cost(read_cpu))
        result = self.engines[owner].get(key)
        yield from self.cached_read_io(node, result.bill.blocks)
        return result.row

    def _apply_scan(self, owner: int, start_key: str, count: int):
        self._maybe_shed(owner)
        self.note_node_op(owner)
        node = self.cluster.servers[owner]
        yield from node.cpu(self.server_cost(
            self.profile.scan_base_cpu
            + count * self.profile.scan_per_record_cpu
        ))
        rows, bill = self.engines[owner].scan(start_key, count)
        yield from self.cached_read_io(node, bill.blocks)
        return rows

    def _apply_delete(self, owner: int, key: str):
        if self.replication_factor == 1:
            owner = self.owner_of(key)  # pending-range forward, as for writes
        self.note_node_op(owner)
        node = self.cluster.servers[owner]
        yield from node.cpu(self.profile.write_cpu)
        self.engines[owner].delete(key)
        return True


class CassandraSession(StoreSession):
    """One client connection; rotates its coordinator per request."""

    def __init__(self, store: CassandraStore, client_node: Node, index: int):
        super().__init__(store, client_node, index)
        self._rr = index  # stagger coordinators across sessions

    def _next_coordinator(self) -> int:
        """The next live coordinator in this session's rotation.

        The driver's connection pool knows which hosts refuse
        connections, so crashed nodes are skipped; with every server
        down there is nobody to coordinate.
        """
        n = self.store.cluster.n_servers
        for __ in range(n):
            self._rr += 1
            candidate = self._rr % n
            if self.store.node_is_up(candidate):
                return candidate
        raise UnavailableError("no live coordinator in the ring")

    def _forward(self, coordinator: Node, replica: int, handler,
                 request_bytes: int, response_bytes: int):
        """Process: the coordinator relays a request it does not serve."""
        store = self.store
        yield from coordinator.cpu(store.COORDINATOR_CPU)
        result = yield from store.cluster.network.rpc(
            coordinator, store.cluster.servers[replica],
            request_bytes, response_bytes, handler)
        return result

    def _route(self, replicas: list[int], request_bytes: int,
               response_bytes: int, apply, *args):
        """Client -> coordinator (-> replica) -> back, one replica
        serving ``apply(replica, *args)``: the coordinator itself when it
        is among ``replicas`` (Cassandra's local read), otherwise the
        first of them, over a forwarding hop.

        ``replicas`` are live, in ring order.  At CL=ONE on a replicated
        ring who answers therefore rotates with the coordinator: after a
        partition heals, a replica that silently missed writes (no hint
        was queued — the coordinator never saw it as *down*) keeps
        serving its old cells until a later write overwrites them, the
        measurable staleness the quorum sweep pins at ``R=W=1``.
        """
        store = self.store
        coordinator = self._next_coordinator()
        serving = coordinator if coordinator in replicas else replicas[0]
        work = apply(serving, *args)
        if serving != coordinator:
            work = self._forward(store.cluster.servers[coordinator], serving,
                                 work, request_bytes, response_bytes)
        return self._call_server(coordinator, work, request_bytes,
                                 response_bytes, coordinator=coordinator,
                                 owner=serving)

    def read(self, key: str):
        store = self.store
        copies = store.replication_factor
        if copies == 1:
            # Consistency ONE with failover: any live replica serves.
            live = [store.live_replica_of(key)]
        elif store.required_read_acks() > 1:
            return self._quorum_read(key)
        else:
            live = store.live_replicas(
                store.replicas_of(key, copies), 1,
                lambda __: f"no live replica of {key!r} (RF={copies})")
        return self._route(live, store.request_bytes(key),
                           store.response_bytes(1), store._apply_read, key)

    def _quorum_read(self, key: str):
        """R > 1: the coordinator reads R replicas, returns the newest.

        The read set is the first R live replicas in ring order.  All R
        responses are required (a partitioned replica in the read set
        fails the read — the availability cost of a quorum read, which
        the client's retry may or may not route around); the newest
        cell by write timestamp wins, so any overlap with the write
        quorum surfaces the latest acked write — the ``R+W>N`` pin the
        audit sweep verifies.
        """
        store = self.store
        replicas = store.replicas_of(key, store.replication_factor)
        needed = store.required_read_acks()
        request = store.request_bytes(key)
        response = store.response_bytes(1)
        coordinator = self._next_coordinator()
        node = store.cluster.servers[coordinator]

        def coordinate():
            yield from node.cpu(store.COORDINATOR_CPU)
            live = store.live_replicas(
                replicas, needed,
                lambda n: f"{n}/{len(replicas)} replicas live, read "
                f"consistency {store.read_consistency!r} needs {needed}")
            # The coordinator reads locally when it holds a replica,
            # then the nearest others in ring order (a stable sort);
            # any R-subset works for correctness because every read
            # quorum intersects every write quorum when R+W>N.
            live.sort(key=lambda replica: replica != coordinator)
            acks, quorum = store.fan_out(
                node, live[:needed], needed, request, response,
                store._apply_versioned_read, key)
            yield quorum  # every chosen replica answers
            return newest_cell(acks)

        return self._call_server(coordinator, coordinate(), request, response,
                                 coordinator=coordinator, replicas=replicas,
                                 read_acks=needed)

    def insert(self, key: str, row: tuple):
        store = self.store
        version = store.next_write_version()
        request = store.request_bytes(key, row)
        response = store.response_bytes(0)
        if store.replication_factor > 1:
            return self._quorum_insert(key, row, version, request, response)
        live = store.live_replicas(
            [store.owner_of(key)], 1,
            lambda __: f"single replica of {key!r} is down (RF=1)")
        return self._route(live, request, response, store._apply_write,
                           key, row, version)

    def _quorum_insert(self, key: str, row: tuple, version: int,
                       request: int, response: int):
        """RF > 1: the coordinator fans the mutation out to every live
        replica and acknowledges once the consistency level is met —
        the replication extension of the paper's future work.  Down
        replicas get hinted handoffs (replayed on restart); when the
        live replica set cannot meet the consistency level the write is
        unavailable.  A replica crashing mid-write is absorbed by the
        quorum wait as long as enough acknowledgements remain possible.
        """
        store = self.store
        replicas = store.replicas_of(key, store.replication_factor)
        coordinator = self._next_coordinator()
        node = store.cluster.servers[coordinator]

        def coordinate():
            yield from node.cpu(store.COORDINATOR_CPU)
            needed = store.required_acks()
            live = store.live_replicas(
                replicas, needed,
                lambda n: f"{n}/{len(replicas)} replicas live, consistency "
                f"{store.consistency_level!r} needs {needed}")
            for replica in replicas:
                if replica not in live:
                    store.queue_hint(replica, key, row, version)
            if store._fanout is not None:
                store._fanout.inc(len(live))
            __, quorum = store.fan_out(
                node, live, needed, request, response,
                store._apply_write, key, row, version)
            with span(store.sim, "replica_wait", "replica-wait",
                      needed=needed, live=len(live)):
                yield quorum
            return True

        return self._call_server(coordinator, coordinate(), request, response,
                                 coordinator=coordinator, replicas=replicas)

    def scan(self, start_key: str, count: int):
        store = self.store
        # RandomPartitioner get_range_slices: the scan starts at the token
        # owner of the start key (or its first live replica) and walks
        # that node's range.
        return self._route(
            [store.live_replica_of(start_key)],
            store.request_bytes(start_key), store.response_bytes(count),
            store._apply_scan, start_key, count)

    def delete(self, key: str):
        store = self.store
        return self._route(
            [store.live_replica_of(key)], store.request_bytes(key),
            store.response_bytes(0), store._apply_delete, key)
