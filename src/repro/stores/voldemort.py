"""The Project Voldemort model: a Dynamo-style DHT over BerkeleyDB.

Architecture per Section 4.3, version 0.90.1 semantics:

* *client-side routing*: the client knows the partition map (two
  partitions per node, as the paper configured) and talks straight to the
  owner — no coordinator hop, which is why Voldemort shows the lowest and
  most stable latencies in Figures 4/5;
* each node persists into an embedded BerkeleyDB JE store — a B+tree
  whose internal nodes stay cached (75/25 memory split per Section 4.3)
  while leaf fetches go through the page cache;
* BDB JE is append-only on write, but updating a leaf requires having it
  in memory — on the disk-bound cluster every write risks a leaf *read*,
  which is why Voldemort's Workload W gain on Cluster D (3x) is so much
  smaller than Cassandra's (26x) in Figure 18;
* the client library caps its connection pool: the paper had to run far
  fewer YCSB threads (Section 6, "we had to adjust the number of server
  side threads and the number of threads per YCSB instance"), which we
  model as a small per-node connection budget.

The stock YCSB Voldemort client does not implement scans (Section 5.4),
so ``supports_scans`` is ``False`` and scan workloads skip this store.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.hashing import murmur64a
from repro.sim.cluster import Cluster, Node
from repro.storage.btree import BPlusTree
from repro.storage.encoding import encode_bdb_entry, sample_record
from repro.storage.record import APM_SCHEMA, RecordSchema
from repro.stores.base import (
    OpError,
    ServiceProfile,
    Store,
    StoreSession,
    load_batches,
    newest_cell,
)
from repro.stores.sharding import TokenRing

__all__ = ["VoldemortStore", "VoldemortSession"]


class VoldemortStore(Store):
    """Client-routed DHT with per-node B+tree storage."""

    name = "voldemort"
    supports_scans = False

    #: Client connection-pool budget per storage node (Section 6).
    CONNECTIONS_PER_NODE = 4
    #: Partitions per node, as configured in the paper (Section 4.3).
    PARTITIONS_PER_NODE = 2
    #: Keys per B+tree node of the BDB-JE index.
    BTREE_ORDER = 8

    def __init__(self, cluster: Cluster, schema: RecordSchema = APM_SCHEMA,
                 profile: ServiceProfile | None = None,
                 replication_factor: int = 1,
                 required_writes: int = 1,
                 required_reads: int = 1):
        super().__init__(cluster, schema, profile)
        n = cluster.n_servers
        if replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        replication_factor = min(replication_factor, n)
        if not 1 <= required_writes <= replication_factor:
            raise ValueError(
                f"required_writes must be in [1, N={replication_factor}], "
                f"got {required_writes}")
        if not 1 <= required_reads <= replication_factor:
            raise ValueError(
                f"required_reads must be in [1, N={replication_factor}], "
                f"got {required_reads}")
        #: Dynamo-style N/R/W (real Voldemort's store definition knobs;
        #: the paper ran N=1).  The client fans each operation to the N
        #: nodes on the key's preference list and waits for W write /
        #: R read responses.
        self.replication_factor = replication_factor
        if replication_factor > 1:
            self.reshard_refusal = (
                "online topology changes are modelled for N=1 only; the "
                "replicated store keeps a fixed preference list")
        self.required_writes = required_writes
        self.required_reads = required_reads
        # The partition count is fixed at cluster creation (as in real
        # Voldemort); rebalancing moves whole partitions between nodes.
        self.ring = TokenRing(n * self.PARTITIONS_PER_NODE)
        self.trees: list[BPlusTree] = []
        self.log_bytes: list[int] = []
        for index, node in enumerate(cluster.servers):
            self._add_server(node, index)
        self._entry_bytes = len(encode_bdb_entry(
            *sample_record(self.schema), self.schema))
        self._rebuild_routing()

    def _add_server(self, node: Node, index: int) -> None:
        self.trees.append(BPlusTree(order=self.BTREE_ORDER))
        self.log_bytes.append(0)

    def _rebuild_routing(self) -> None:
        """Round-robin the fixed partitions over the current members."""
        members = self._members
        self._owner_map = [members[p % len(members)]
                           for p in range(len(self.ring.tokens))]

    def _attach_node_metrics(self, registry, index: int) -> None:
        """Add BDB-JE log-volume meters and per-node tree size probes."""
        node = self.cluster.servers[index]
        labels = {"store": self.name, "node": node.name}
        registry.meter("voldemort_log_bytes",
                       lambda i=index: self.log_bytes[i], **labels)
        registry.probe("voldemort_tree_records",
                       lambda t=self.trees[index]: len(t), **labels)

    @classmethod
    def default_profile(cls) -> ServiceProfile:
        return ServiceProfile(
            read_cpu=95e-6,
            write_cpu=280e-6,
            client_cpu=20e-6,
        )

    #: BDB JE background work per write (log cleaner + checkpointer),
    #: charged off the commit path: it caps write throughput without
    #: inflating the acknowledged write latency, matching the paper's
    #: stable-but-low Voldemort latencies next to its RW/W slow-down.
    BACKGROUND_WRITE_CPU = 600e-6
    #: Fraction of writes that must fault the target leaf in from disk
    #: when it is not cached.  JE is log-structured on write: dirty leaf
    #: nodes are batched and appended lazily, so roughly every third
    #: write touches a cold leaf — the reason Voldemort's Workload W
    #: gain on the disk-bound cluster is only ~3x (Figure 18) while the
    #: pure-append LSM stores gain 15-26x.
    WRITE_LEAF_FAULT_PERCENT = 35

    def connections(self, default_per_node: int) -> int:
        return min(default_per_node,
                   self.CONNECTIONS_PER_NODE) * self.cluster.n_servers

    #: Admission control is the client connection pool, per node:
    #: Voldemort's client library caps in-flight requests per storage
    #: node; when the pool is exhausted a checkout fails immediately
    #: rather than queueing behind the socket.
    connection_pool = "voldemort-pool"

    def owner_of(self, key: str) -> int:
        """Node index owning ``key`` (partition -> node, round-robin)."""
        return self._owner_map[self.ring.owner_of(key)]

    def replica_nodes_of(self, key: str) -> list[int]:
        """The key's preference list: N distinct nodes in partition order.

        Voldemort walks the partition ring from the key's primary
        partition, collecting owners until it has ``replication_factor``
        distinct nodes (skipping partitions co-located on a node already
        in the list).
        """
        if self.replication_factor == 1:  # the paper's setting
            return [self.owner_of(key)]
        return self._preference_list(self.ring.owner_of(key))

    homes = replica_nodes_of

    def homes_many(self, keys: list[str]) -> list[list[int]]:
        """``homes`` of every key: one batched hash onto the primary
        partitions, then each partition's preference list, walked once a
        partition, not a key."""
        lists = [self._preference_list(primary)
                 for primary in range(len(self.ring.tokens))]
        return [lists[primary] for primary in self.ring.owner_of_many(keys)]

    def _preference_list(self, primary: int) -> list[int]:
        """The distinct owners from partition ``primary`` on, in ring
        order, up to ``replication_factor`` of them."""
        n_partitions = len(self.ring.tokens)
        nodes: list[int] = []
        for step in range(n_partitions):
            owner = self._owner_map[(primary + step) % n_partitions]
            if owner not in nodes:
                nodes.append(owner)
                if len(nodes) == self.replication_factor:
                    break
        return nodes

    def declared_loss(self, node: Node) -> Optional[str]:
        """At N=1 a permanently crashed node takes its partitions' only
        copy with it — a by-design loss the chaos controller records in
        the declared-loss manifest.  With N>1 surviving replicas hold
        the data, so an unreadable acked write is a real violation."""
        if self.replication_factor == 1:
            return "N=1 partition map: the crashed node held the only copy"
        return None

    # -- topology: the rebalancer hands whole partitions to the members -------
    #
    # The partition count stays fixed (real Voldemort cannot split
    # partitions online); ownership re-round-robins over the members and
    # affected partitions stream their BDB entries across.

    def _shard_entries(self):
        return enumerate(tree.items() for tree in self.trees)

    _shard_of = owner_of

    def _move_entry(self, key: str, value, src: int, dst: int):
        self.trees[src].remove(key)
        self.trees[dst].put(key, value)
        self.log_bytes[src] -= self._entry_bytes
        self.log_bytes[dst] += self._entry_bytes
        return src, dst, self._entry_bytes

    # -- deployment ----------------------------------------------------------

    def load(self, records: Iterable[tuple[str, tuple]]) -> None:
        trees, log_bytes = self.trees, self.log_bytes
        entry_bytes = self._entry_bytes
        for key, row, owners in load_batches(records, self.homes_many):
            for owner in owners:
                trees[owner].put(key, row)
                log_bytes[owner] += entry_bytes

    def session(self, client_node: Node, index: int) -> "VoldemortSession":
        return VoldemortSession(self, client_node, index)

    def warm_caches(self) -> None:
        for owner, tree in enumerate(self.trees):
            cache = self.cluster.servers[owner].page_cache
            for page_id in tree.leaf_page_ids():
                cache.insert(self._leaf_block(owner, page_id))

    def disk_bytes_per_server(self) -> list[int]:
        # Append-only JE logs at the cleaner's target utilisation.
        return [int(b / 0.45) for b in self.log_bytes]

    # -- server ---------------------------------------------------------------

    def _leaf_block(self, owner: int, page_id: int) -> tuple:
        return ("bdb", owner, page_id)

    def _apply_read(self, owner: int, key: str):
        self.note_node_op(owner)
        node = self.cluster.servers[owner]
        yield from node.cpu(self.profile.read_cpu)
        value, path = self.trees[owner].get(key)
        # Internal nodes are pinned in the JE cache; only the leaf page
        # can miss.
        leaf = self._leaf_block(owner, path.page_ids[-1])
        yield from self.cached_read_io(node, [leaf])
        return value

    def _apply_write(self, owner: int, key: str, row: tuple,
                     version: int = 0):
        # A write routed under the old partition map lands after the
        # rebalancer moved its partition; the server proxies it to the
        # current owner (Voldemort's rebalancing redirect) so the
        # acknowledgement never strands data on the old node.  With N>1
        # the caller pins a preference-list replica instead (there is no
        # online rebalancing to redirect around).
        if self.replication_factor == 1:
            owner = self.owner_of(key)
        self.note_node_op(owner)
        node = self.cluster.servers[owner]
        yield from node.cpu(self.profile.write_cpu)
        tree = self.trees[owner]
        was_new, path = tree.put(key, row)
        # Read-modify-write, amortised and deferred: JE batches dirty
        # leaves, so only a fraction of writes fault a cold leaf — and
        # the fault happens off the commit path (eviction/checkpoint),
        # consuming disk capacity without stalling the acknowledgement.
        if murmur64a(key.encode("utf-8"),
                     seed=0xFA17) % 100 < self.WRITE_LEAF_FAULT_PERCENT:
            leaf = self._leaf_block(owner, path.page_ids[-1])
            self.sim.detached(self.cached_read_io(node, [leaf]),
                              name="je-leaf-fault")
        self.log_bytes[owner] += self._entry_bytes
        self._stamp(owner, key, version)
        # JE appends the log entry with WRITE_NO_SYNC: buffered, drained
        # by the log flusher without stalling the commit.
        yield from node.disk.write(self._entry_bytes, sequential=True,
                                   sync=False)
        # Cleaner/checkpointer work happens off the commit path and must
        # outlive the request's deadline.
        self.sim.detached(node.cpu(self.BACKGROUND_WRITE_CPU),
                          name="je-cleaner")
        return True

    def _apply_delete(self, owner: int, key: str):
        if self.replication_factor == 1:
            owner = self.owner_of(key)  # rebalancing redirect, as for writes
        self.note_node_op(owner)
        node = self.cluster.servers[owner]
        yield from node.cpu(self.profile.write_cpu)
        self.versions[owner].pop(key, None)
        was_present, path = self.trees[owner].remove(key)
        leaf = self._leaf_block(owner, path.page_ids[-1])
        yield from self.cached_read_io(node, [leaf])
        return was_present


class VoldemortSession(StoreSession):
    """A client connection with built-in (client-side) routing."""

    route_label = "owner"

    def _live(self, key: str, k: int, quorum: str) -> list[int]:
        """The live nodes of the key's preference list, at least ``k``."""
        store = self.store
        replicas = store.replica_nodes_of(key)
        return store.live_replicas(
            replicas, k, lambda n: f"{n}/{len(replicas)} replicas of "
            f"{key!r} live, {quorum}={k}")

    def _quorum(self, replicas: list[int], k: int, merge,
                request_bytes: int, response_bytes: int, apply, *args):
        """Process: the Dynamo-style call — this client sends
        ``apply(replica, *args)`` to every one of ``replicas`` and
        returns once ``k`` answered: ``merge(acks)``, or ``True``.

        The client library fans out itself (client-side routing), so
        the per-node connection gates of the single-owner path do not
        apply to the parallel requests.  A partitioned replica still
        *looks* up, so it receives a request that times out — tolerated
        while ``k`` others answer, which is exactly how it silently
        misses a write: Voldemort's model here has no hinted handoff, so
        nothing replays it after the heal.
        """
        store = self.store
        yield from store.client_cpu(self.client)
        acks, quorum = store.fan_out(self.client, replicas, k, request_bytes,
                                     response_bytes, apply, *args)
        yield quorum
        return merge(acks) if merge else True

    def read(self, key: str):
        """N > 1: R replicas of the preference list answer; the newest
        wins.

        The read set is the first R live nodes in preference order and
        every one of them must answer — a replica that looks up but is
        partitioned fails the read, the availability cost of a quorum
        read.  At R=1 that means the *primary alone* serves, so a
        replica that missed writes during a partition keeps returning
        stale data after the heal — the staleness the audit sweep
        measures.  R+W>N makes the read set overlap every write quorum,
        so the max-version merge always surfaces the latest acked write.
        """
        store = self.store
        if store.replication_factor == 1:
            return super().read(key)
        k = store.required_reads
        chosen = self._live(key, k, "R")[:k]
        store.annotate(replicas=chosen, read_acks=k)
        return self._quorum(
            chosen, k, newest_cell, store.request_bytes(key),
            store.response_bytes(1), store._apply_versioned_read, key)

    def insert(self, key: str, row: tuple):
        """N > 1: fan to every live node of the preference list, ack at W."""
        store = self.store
        version = store.next_write_version()
        if store.replication_factor == 1:
            return super().insert(key, row, version)
        k = store.required_writes
        live = self._live(key, k, "W")
        store.annotate(replicas=live, write_acks=k)
        return self._quorum(
            live, k, None,
            store.request_bytes(key, row),
            store.response_bytes(0), store._apply_write, key, row, version)

    def scan(self, start_key: str, count: int):
        raise OpError("the Voldemort YCSB client does not support scans")
        yield  # pragma: no cover - generator form

    def delete(self, key: str):
        store = self.store
        if store.replication_factor == 1:
            return super().delete(key)
        k = store.required_writes
        return self._quorum(
            self._live(key, k, "W"), k, None, store.request_bytes(key),
            store.response_bytes(0), store._apply_delete, key)
