"""The VoltDB model: partitioned, single-threaded, in-memory executors.

Architecture per Section 4.5, version 2.1.3 semantics:

* the database is split into disjoint partitions, six *sites* per host
  as the paper configured; each site executes transactions serially on
  one thread, "without any locking or latching";
* the unit of work is a stored procedure; reads, writes and inserts on a
  single key are single-partition transactions, scans are multi-partition
  transactions that must touch every site (Section 4.5);
* VoltDB 2.x establishes a *global* transaction order: every transaction
  passes an initiation round whose cost grows with the number of nodes.
  Combined with YCSB's synchronous clients this is what makes VoltDB
  throughput *decrease* beyond one node (Sections 5.1, 6) — the paper
  notes VoltDB's own benchmarks used asynchronous clients instead.  The
  ``bench_ablation_voltdb_async`` experiment removes the synchronous
  round to test that hypothesis.

VoltDB is in-memory (no command logging in the benchmarked setup): it
does not appear in the disk-usage experiment.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.sim.cluster import Cluster, Node
from repro.sim.faults import NodeDownError
from repro.sim.resources import Resource
from repro.storage.record import APM_SCHEMA, Record, RecordSchema
from repro.storage.skiplist import SkipList
from repro.stores.base import (ServiceProfile, Store, StoreSession,
                               load_batches)
from repro.stores.sharding import hash_keys, murmur64a

__all__ = ["VoltDBStore", "VoltDBSession"]


class VoltDBStore(Store):
    """Partitioned in-memory SQL engine with stored-procedure transactions."""

    name = "voltdb"
    supports_scans = True
    #: VoltDB is in-memory: rebalance rows ship over the NIC only.
    rebalance_uses_disk = False

    SITES_PER_HOST = 6
    #: Global ordering cost: fixed initiation work plus per-node fan-out.
    INITIATION_BASE_CPU = 14e-6
    INITIATION_PER_NODE_CPU = 9e-6
    #: Per-site execution of a single-partition procedure.
    EXECUTION_CPU = 120e-6

    def __init__(self, cluster: Cluster, schema: RecordSchema = APM_SCHEMA,
                 profile: ServiceProfile | None = None,
                 synchronous_client: bool = True):
        super().__init__(cluster, schema, profile)
        self.synchronous_client = synchronous_client
        # partition id -> ordered table (VoltDB keeps a tree index on the
        # primary key; a skip list provides the same ordered access).
        # Keyed dicts rather than lists: partition ids are stable across
        # topology changes (sites of a drained host keep their entries,
        # so in-flight fragments never dangle).
        self.partitions: dict[int, SkipList] = {}
        self.sites: dict[int, Resource] = {}
        #: Partition id -> host (server index).
        self._partition_host: dict[int, int] = {}
        self._next_pid = 0
        for host, node in enumerate(cluster.servers):
            self._add_server(node, host)
        self._rebuild_routing()
        # The global transaction initiator/sequencer (only exercised in
        # multi-node deployments).
        self.sequencer = Resource(cluster.sim, 1, "voltdb-sequencer",
                                  component="store")

    def _add_server(self, node: Node, host: int) -> None:
        """Create this host's six sites and their (empty) partitions."""
        for __ in range(self.SITES_PER_HOST):
            pid = self._next_pid
            self._next_pid += 1
            self.partitions[pid] = SkipList(seed=pid)
            self.sites[pid] = Resource(self.sim, 1, f"voltdb-site:{pid}",
                                       component="cpu")
            self._partition_host[pid] = host

    def _rebuild_routing(self) -> None:
        """The hash space — the active partition ids, ascending — is
        the partitions of the member hosts: a new host widens it, a
        drained host's partitions leave it entirely."""
        self._pids = [pid for pid, host in self._partition_host.items()
                      if host in self._members]

    @property
    def n_partitions(self) -> int:
        """Active partitions (the hash space clients route over)."""
        return len(self._pids)

    def _host_sites(self, host: int) -> list[Resource]:
        # Over every partition ever hosted (not just active ones):
        # cumulative busy/slot meters must never run backwards when a
        # drained host's sites leave the active set.
        return [self.sites[p] for p, h in self._partition_host.items()
                if h == host]

    def _host_partitions(self, host: int) -> list[SkipList]:
        return [self.partitions[p] for p, h in self._partition_host.items()
                if h == host]

    def attach_metrics(self, registry) -> None:
        """Add sequencer and per-host site-executor saturation gauges.

        VoltDB's choke points are its serial executors: the global
        transaction sequencer and each host's partition sites, so their
        queue depths and busy time are the store-level signal.
        """
        super().attach_metrics(registry)
        registry.probe("voltdb_sequencer_queue",
                       lambda: self.sequencer.queue_length, store=self.name)
        registry.meter("voltdb_sequencer_busy_seconds",
                       self.sequencer.busy_seconds, store=self.name)

    def _attach_node_metrics(self, registry, index: int) -> None:
        node = self.cluster.servers[index]
        labels = {"store": self.name, "node": node.name}
        # Recompute the host's site group per reading: rebalancing moves
        # partitions between hosts, so a captured snapshot would go stale.
        registry.probe(
            "voltdb_site_queue",
            lambda h=index: float(sum(s.in_use + s.queue_length
                                      for s in self._host_sites(h))),
            **labels)
        registry.meter(
            "voltdb_site_busy_seconds",
            lambda h=index: sum(s.busy_seconds()
                                for s in self._host_sites(h)),
            **labels)
        registry.meter(
            "store_executor_slot_seconds",
            lambda h=index: sum(s.slot_seconds()
                                for s in self._host_sites(h)),
            **labels)
        registry.probe(
            "store_executor_slots",
            lambda h=index: float(len(self._host_sites(h))), **labels)
        registry.probe(
            "voltdb_partition_rows",
            lambda h=index: float(sum(len(p)
                                      for p in self._host_partitions(h))),
            **labels)

    @classmethod
    def default_profile(cls) -> ServiceProfile:
        return ServiceProfile(
            read_cpu=120e-6,
            write_cpu=120e-6,
            scan_base_cpu=30e-6,       # per-site fragment setup
            scan_per_record_cpu=2e-6,  # per row collected
            client_cpu=22e-6,
        )

    def partition_of(self, key: str) -> int:
        """Partition column hash, as VoltDB derives from the primary key."""
        pids = self._pids
        return pids[murmur64a(key.encode()) % len(pids)]

    def partition_of_many(self, keys: list[str]) -> list[int]:
        """``partition_of`` of every key, with one batched hash."""
        pids = self._pids
        n_pids = len(pids)
        return [pids[point % n_pids] for point in hash_keys(keys)]

    def node_of_partition(self, partition: int) -> int:
        """Host index owning ``partition``."""
        return self._partition_host[partition]

    def homes(self, key: str) -> list[int]:
        return [self.node_of_partition(self.partition_of(key))]

    def declared_loss(self, node: Node) -> str:
        """K-safety 0, as the paper ran (Section 4.4): each partition
        lives on exactly one host, so a host that never comes back takes
        its partitions' only copy with it."""
        return "k-safety=0: the crashed host held its partitions' only copy"

    def overload_channels(self):
        """Admission control bounds each site queue and the sequencer.

        VoltDB's real analogue is the site transaction-queue limit: a
        procedure arriving at a full site backlog is rejected instead of
        deepening the serial executor's queue.
        """
        return [*self.sites.values(), self.sequencer]

    # -- topology: elastic add / drain, rows rehash across the fleet ----------
    #
    # VoltDB 2.x took a maintenance window; we model the later
    # online-rejoin semantics: the partition hash space changes and rows
    # rehash across the fleet — a global reshuffle, unlike the ring
    # stores' 1/n.

    def _shard_entries(self):
        for pid, table in sorted(self.partitions.items()):
            yield pid, table.items()

    _shard_of = partition_of

    def _move_entry(self, key: str, value, src_pid: int, dst_pid: int):
        self.partitions[src_pid].remove(key)
        self.partitions[dst_pid].put(key, value)
        src = self._partition_host[src_pid]
        dst = self._partition_host[dst_pid]
        if src == dst:  # same-host moves are memcpys, not wire IO
            return None
        return src, dst, self.schema.key_length + self.schema.raw_value_bytes

    # -- deployment ----------------------------------------------------------

    def load(self, records: Iterable[Record]) -> None:
        rows: dict[int, list] = {pid: [] for pid in self.partitions}
        for batch, pids in load_batches(records, self.partition_of_many):
            for record, pid in zip(batch, pids):
                rows[pid].append((record.key, dict(record.fields)))
        for pid, table in self.partitions.items():
            table.put_all(rows.pop(pid))

    def session(self, client_node: Node, index: int) -> "VoltDBSession":
        return VoltDBSession(self, client_node, index)

    # -- transaction machinery ------------------------------------------------

    def _initiate(self, node: Node, multi_partition: bool = False):
        """The global ordering round every transaction passes through.

        At one node the initiation is local and cheap; in a multi-node
        cluster the initiator must agree on a global order with every
        other host, serialising at the sequencer.
        """
        n = len(self._members)
        if n == 1 or not self.synchronous_client:
            yield from node.cpu(self.INITIATION_BASE_CPU)
            return
        hold = (self.INITIATION_BASE_CPU
                + n * self.INITIATION_PER_NODE_CPU) * (2 if multi_partition
                                                       else 1)
        yield from self.sequencer.use(hold)

    def _run_on_site(self, partition: int, cpu_seconds: float, action):
        """Execute a procedure fragment serially on the partition's site.

        Stays a generator: the dead-host check must run when the
        fragment starts, before the hold reads the deadline.
        """
        owner = self.node_of_partition(partition)
        node = self.cluster.servers[owner]
        if not node.up:
            # K-safety 0: the partition's only copy lives on this host.
            # A live entry node can plan the procedure, but the fragment
            # has nowhere to run while the owner is down.
            raise NodeDownError(
                f"partition {partition} unavailable: host {node.name} is down",
                node=node.name,
            )
        result = yield from self.sites[partition].hold(
            self.executor_work(node, cpu_seconds, action),
            attrs={"partition": partition},
            entered=lambda: self.note_node_op(owner))
        return result

    def _single_partition(self, partition: int, cpu: float, action):
        node = self.cluster.servers[self.node_of_partition(partition)]
        yield from self._initiate(node)
        result = yield from self._run_on_site(partition, cpu, action)
        return result

    # -- server ---------------------------------------------------------------

    def _proc_read(self, partition: int, key: str):
        result = yield from self._single_partition(
            partition, self.profile.read_cpu,
            lambda: self.partitions[partition].get(key),
        )
        return dict(result) if result is not None else None

    def _proc_write(self, partition: int, key: str,
                    fields: Mapping[str, str]):
        # A procedure initiated under the old partition map executes
        # after an elastic rehash widened the hash space; the initiator
        # re-plans it against the current partition (the client "wrong
        # partition" retry) so the acknowledged row lands at its owner.
        partition = self.partition_of(key)

        def action():
            table = self.partitions[partition]
            existing = table.get(key)
            if existing is not None:
                merged = dict(existing)
                merged.update(fields)
                table.put(key, merged)
            else:
                table.put(key, dict(fields))
            return True
        result = yield from self._single_partition(
            partition, self.profile.write_cpu, action,
        )
        return result

    def _proc_delete(self, partition: int, key: str):
        partition = self.partition_of(key)  # re-plan, as for writes
        result = yield from self._single_partition(
            partition, self.profile.write_cpu,
            lambda: self.partitions[partition].remove(key),
        )
        return result

    def _proc_scan(self, coordinator: Node, start_key: str, count: int):
        """A multi-partition transaction touching every site."""
        yield from self._initiate(coordinator, multi_partition=True)
        fragments = []
        collected: list[list[tuple[str, dict[str, str]]]] = []

        def collect(partition: int):
            table = self.partitions[partition]
            rows = [(k, dict(v)) for k, v in table.scan(start_key, count)]
            collected.append(rows)
            return None

        per_site_cpu = (self.profile.scan_base_cpu
                        + count * self.profile.scan_per_record_cpu)
        for partition in list(self._pids):
            fragments.append(self.sim.process(self._run_on_site(
                partition, per_site_cpu,
                lambda p=partition: collect(p),
            )))
        yield self.sim.all_of(fragments)
        merged = sorted(row for rows in collected for row in rows)
        return merged[:count]


class VoltDBSession(StoreSession):
    """A synchronous client connected to all hosts (per the docs)."""

    def __init__(self, store: VoltDBStore, client_node: Node, index: int):
        super().__init__(store, client_node, index)
        self._rr = index

    def _entry_node(self) -> Node:
        """Round-robin over hosts, like a client connected to all of them."""
        self._rr += 1
        members = self.store._members
        return self.store.cluster.servers[members[self._rr % len(members)]]

    def _call(self, handler, request_bytes: int, response_bytes: int,
              via: Node | None = None):
        store = self.store
        yield from store.client_cpu(self.client)
        entry = via or self._entry_node()
        result = yield from store.cluster.network.rpc(
            self.client, entry, request_bytes, response_bytes, handler,
        )
        return result

    def read(self, key: str):
        store = self.store
        partition = store.partition_of(key)
        store.annotate(partition=partition)
        return self._call(
            store._proc_read(partition, key),
            store.request_bytes(key), store.response_bytes(1),
        )

    def insert(self, key: str, fields: Mapping[str, str]):
        store = self.store
        partition = store.partition_of(key)
        store.annotate(partition=partition)
        return self._call(
            store._proc_write(partition, key, fields),
            store.request_bytes(key, fields, with_payload=True),
            store.response_bytes(0),
        )

    def scan(self, start_key: str, count: int):
        store = self.store
        entry = self._entry_node()
        return self._call(
            store._proc_scan(entry, start_key, count),
            store.request_bytes(start_key), store.response_bytes(count),
            via=entry,
        )

    def delete(self, key: str):
        store = self.store
        partition = store.partition_of(key)
        return self._call(
            store._proc_delete(partition, key),
            store.request_bytes(key), store.response_bytes(0),
        )
