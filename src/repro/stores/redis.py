"""The Redis model: independent in-memory nodes, client-side sharding.

Architecture per Section 4.4 / Section 6, version 2.4.2 semantics:

* the Redis cluster version was unusable at the time, so the paper ran
  one standalone instance per node and sharded in the *client* with the
  Jedis ``ShardedJedisPool`` (MurmurHash ring, 160 virtual nodes);
* each instance is single-threaded — one event loop serves all commands;
* every YCSB thread holds a socket to every shard, which "quickly
  saturated [the system] because of the number of connections.  As a
  result, we were forced to use a smaller number of threads" — modelled
  by :meth:`RedisStore.connections`, which shrinks the thread count as
  the cluster grows (this is why Redis *latency drops* with node count in
  Figures 4/5 while its throughput stops scaling);
* the Jedis ring is measurably unbalanced; the hottest shard carries the
  excess and is the node that "consistently ran out of memory in the
  12-node configuration" (Section 5.1, footnote 7);
* a record is a Redis hash plus an entry in one global sorted set used
  for scans (Section 4.4); scans ZRANGE the index on the shard owning the
  start key and pipeline an MGET for the rows.

Redis keeps everything in RAM: it does not appear in the disk-usage
experiment (Figure 17).
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.sim.cluster import Cluster, Node
from repro.sim.resources import Resource
from repro.storage.hashstore import HashStore
from repro.storage.record import APM_SCHEMA, Record, RecordSchema
from repro.stores.base import (ServiceProfile, Store, StoreSession,
                               load_batches)
from repro.stores.sharding import ClientRingRouting, jdbc_ring, jedis_ring

__all__ = ["RedisStore", "RedisSession"]


class RedisStore(ClientRingRouting, Store):
    """Standalone in-memory shards behind a Jedis-style client ring."""

    name = "redis"
    supports_scans = True
    #: Redis keeps everything in RAM: resharding ships over the NIC only.
    rebalance_uses_disk = False

    def __init__(self, cluster: Cluster, schema: RecordSchema = APM_SCHEMA,
                 profile: ServiceProfile | None = None,
                 hash_algorithm: str = "murmur"):
        """``hash_algorithm`` picks the client ring: "murmur" or "md5"
        (Jedis's two options — the paper tried both, footnote 7), or
        "balanced" for the ablation that replaces Jedis's ring with a
        well-balanced one."""
        super().__init__(cluster, schema, profile)
        self._hash_algorithm = hash_algorithm
        self.shards: list[HashStore] = []
        # One event loop per instance: Redis 2.4 is single-threaded.
        self.event_loops: list[Resource] = []
        for index, node in enumerate(cluster.servers):
            self._add_server(node, index)
        self._rebuild_routing()

    def _add_server(self, node: Node, index: int) -> None:
        self.shards.append(
            HashStore(self.schema, max_memory_bytes=node.spec.cache_bytes))
        self.event_loops.append(
            Resource(self.sim, 1, f"redis-loop:{node.name}",
                     component="cpu"))

    def _rebuild_routing(self) -> None:
        """Point the client ring at the current member instances."""
        if self._hash_algorithm == "balanced":
            self._route(jdbc_ring)
        else:
            self._route(lambda names: jedis_ring(names,
                                                 self._hash_algorithm))

    def _attach_node_metrics(self, registry, index: int) -> None:
        """Add event-loop saturation gauges and shard memory probes.

        The single-threaded loop is Redis's serialisation point, so its
        busy time — not the node's multi-core CPU — is the store-level
        saturation signal.
        """
        node = self.cluster.servers[index]
        labels = {"store": self.name, "node": node.name}
        registry.meter("redis_loop_busy_seconds",
                       self.event_loops[index].busy_seconds, **labels)
        registry.meter("store_executor_slot_seconds",
                       self.event_loops[index].slot_seconds, **labels)
        registry.probe("store_executor_slots", lambda: 1.0, **labels)
        registry.probe("redis_loop_queue",
                       lambda r=self.event_loops[index]: r.queue_length,
                       **labels)
        registry.probe("redis_used_memory_bytes",
                       lambda s=self.shards[index]: s.used_memory_bytes,
                       **labels)

    @classmethod
    def default_profile(cls) -> ServiceProfile:
        return ServiceProfile(
            read_cpu=19e-6,
            write_cpu=23e-6,
            scan_base_cpu=35e-6,   # ZRANGEBYLEX on the index zset
            scan_per_record_cpu=2.5e-6,  # per row of the pipelined MGET
            client_cpu=18e-6,
        )

    @classmethod
    def clients_for(cls, n_servers: int, servers_per_client: int) -> int:
        """The paper doubled the client machines for Redis (Section 5.1)."""
        return max(1, math.ceil(2 * n_servers / servers_per_client))

    def connections(self, default_per_node: int) -> int:
        """Threads shrink with cluster size (connection explosion).

        Every thread needs a socket per shard; the paper reduced the
        thread count until the connection load was sustainable.  The
        budget below reproduces the observed regime: full threads at one
        node, then roughly ``256 / n`` with a floor.
        """
        n = self.cluster.n_servers
        return min(default_per_node * n, max(24, 144 // n))

    def declared_loss(self, node: Node) -> str:
        """Client-sharded, unreplicated (Section 4.6): a permanently
        crashed instance takes its whole shard with it — a by-design
        loss the chaos controller records in the audit manifest."""
        return "hard shard loss: client-sharded Redis keeps a single copy"

    def overload_channels(self):
        """Admission control bounds each instance's event-loop queue.

        This is Redis's real knob (``maxclients`` / kernel backlog): a
        command arriving at a full loop queue is refused at once instead
        of growing an unbounded backlog behind the single thread.
        """
        return self.event_loops

    # -- topology: a client ring remap; keys MIGRATE to their new instance ----

    def _shard_entries(self):
        for src, shard in enumerate(self.shards):
            if len(shard):
                yield src, shard.scan("", len(shard))

    def _move_entry(self, key: str, row: tuple, src: int, dst: int):
        if not self.shards[dst].hset(key, row):
            # Destination OOM mid-reshard: the key stays put (and
            # unreachable), exactly the operational hazard the
            # paper's footnote 7 describes.  Counted as an error.
            self.errors += 1
            return None
        self.shards[src].delete(key)
        return src, dst, self.schema.key_length + self.schema.raw_value_bytes

    # -- deployment ----------------------------------------------------------

    def load(self, records: Iterable[Record]) -> None:
        shards = self.shards
        for key, row, shard in load_batches(records, self.shard_of_many,
                                            self.schema):
            if not shards[shard].hset(key, row):
                self.errors += 1

    def session(self, client_node: Node, index: int) -> "RedisSession":
        return RedisSession(self, client_node, index)

    # -- server ---------------------------------------------------------------

    def _on_loop(self, shard_index: int, cpu_seconds: float, action):
        """Run ``action`` under the shard's event loop for ``cpu_seconds``.

        The single-threaded loop is the shard's serialisation point: the
        generator of its :meth:`~repro.sim.resources.Resource.hold`.  A
        command counts as a node op once it is past the entry deadline
        check, whether or not the loop's queue then takes it.
        """
        return self.event_loops[shard_index].hold(
            self.executor_work(self.cluster.servers[shard_index],
                               cpu_seconds, action),
            attrs={"shard": shard_index},
            entered=lambda: self.note_node_op(shard_index))

    def _apply_read(self, shard_index: int, key: str):
        result = yield from self._on_loop(
            shard_index, self.profile.read_cpu,
            lambda: self.shards[shard_index].hgetall(key),
        )
        return result

    def _apply_write(self, shard_index: int, key: str, row: tuple):
        # A write routed before a reshard reaches the old instance after
        # its keys MIGRATEd away; like the cluster MOVED redirect, it is
        # applied at the current ring owner so the ack stays truthful.
        shard_index = self.shard_of(key)

        def action():
            ok = self.shards[shard_index].hset(key, row)
            if not ok:
                self.errors += 1
            return ok
        result = yield from self._on_loop(
            shard_index, self.profile.write_cpu, action,
        )
        return result

    def _apply_delete(self, shard_index: int, key: str):
        shard_index = self.shard_of(key)  # MOVED redirect, as for writes
        result = yield from self._on_loop(
            shard_index, self.profile.write_cpu,
            lambda: self.shards[shard_index].delete(key),
        )
        return result


class RedisSession(StoreSession):
    """One YCSB thread holding a ShardedJedis handle: point operations
    are the inherited client-sharded call."""

    def scan(self, start_key: str, count: int):
        """ZRANGE on the shard owning the start key + pipelined MGET.

        The paper's hand-written sharded client keeps one index zset per
        shard, so a scan stays on a single instance (two round trips).
        """
        store = self.store
        shard = store.shard_of(start_key)
        # First round trip: ZRANGEBYLEX on the index.
        keys = yield from self._call_server(
            shard,
            store._on_loop(
                shard, store.profile.scan_base_cpu,
                lambda: store.shards[shard].zrange_from(start_key, count),
            ),
            store.request_bytes(start_key),
            store.response_bytes(0) + count * store.schema.key_length,
            **{self.route_label: shard},
        )
        # Second round trip: pipelined HGETALLs for the keys found.
        rows = yield from self._call_server(
            shard,
            store._on_loop(
                shard,
                len(keys) * store.profile.scan_per_record_cpu,
                lambda: store.shards[shard].hgetall_many(keys),
            ),
            store.request_bytes(start_key) + len(keys) * 30,
            store.response_bytes(len(keys)), **{self.route_label: shard},
        )
        return rows
