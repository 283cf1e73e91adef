"""Common store interface and cost-model helpers.

A :class:`Store` owns the server-side state deployed across the simulated
cluster; a :class:`StoreSession` is one client connection (YCSB thread).
Session operations are *simulation process bodies*: generators that yield
kernel events while performing the functional work, so both correctness
(the returned data) and timing (the simulated latency) come out of one
code path.

Costs are expressed through :class:`ServiceProfile` — per-operation CPU
demands on a reference core, calibrated per store to the single-node
throughput and latency the paper reports, while *scaling behaviour*
(linearity, imbalance, collapse) emerges from each store's architecture.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.overload.admission import AdmissionGate
from repro.sim.cluster import Cluster, Node
from repro.sim.faults import UnavailableError
from repro.storage.record import APM_SCHEMA, RecordSchema

__all__ = ["LOAD_BATCH_RECORDS", "LOAD_ROUND_RECORDS", "OpType", "OpError",
           "RetryPolicy", "ServiceProfile", "Store", "StoreSession",
           "load_batches", "load_lsm_rounds", "newest_cell"]


class OpType(enum.Enum):
    """The CRUD-S operation types of the benchmark."""

    READ = "read"
    INSERT = "insert"
    UPDATE = "update"
    SCAN = "scan"
    DELETE = "delete"


class OpError(Exception):
    """A store-level operation failure (e.g. Redis OOM)."""


@dataclass(frozen=True)
class RetryPolicy:
    """How a store's client library reacts to infrastructure faults.

    Infrastructure faults (:class:`repro.sim.faults.FaultError` — a
    crashed node, a partitioned peer, a drained resource) are retried up
    to ``max_attempts`` total tries with exponential backoff between
    them; store-level :class:`OpError` failures are never retried.  The
    backoff happens *inside* the timed operation, exactly as a blocking
    driver's reconnect loop does, so fault handling shows up in measured
    latency — not hidden from it.
    """

    max_attempts: int = 2
    backoff_s: float = 0.02
    backoff_multiplier: float = 2.0
    #: Ceiling on any single backoff sleep: without it a deep
    #: ``max_attempts`` grows the exponential into multi-minute
    #: simulated stalls that dwarf every real timescale in the model.
    backoff_cap_s: float = 1.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if self.backoff_cap_s < 0:
            raise ValueError("backoff_cap_s must be >= 0")

    def backoff_for(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1 = first retry)."""
        raw = self.backoff_s * self.backoff_multiplier ** (attempt - 1)
        return min(raw, self.backoff_cap_s)


@dataclass(frozen=True)
class ServiceProfile:
    """Per-operation CPU demands (seconds on a reference core)."""

    read_cpu: float
    write_cpu: float
    scan_base_cpu: float = 0.0
    scan_per_record_cpu: float = 5e-6
    #: Client-side CPU inside the timed call (driver serialisation).
    client_cpu: float = 20e-6
    #: Client-side CPU *outside* the timed call (workload loop, driver
    #: dispatch) — YCSB timestamps around the DB call, so this work
    #: consumes client-machine capacity without appearing in latencies.
    dispatch_cpu: float = 15e-6
    #: Extra server CPU per open client connection, as a fraction of the
    #: base cost — thread-per-connection scheduling and GC pressure, which
    #: is what bends Cassandra's scaling curve once 128 connections per
    #: node pile up (Section 8 discusses the connection count's impact
    #: directly).
    per_connection_overhead: float = 0.0
    #: Extra *client* CPU per open connection, as a fraction of
    #: ``dispatch_cpu`` — drivers that open one socket per (thread,
    #: server) pair pay management cost growing with the fleet (the
    #: paper's Section 6 notes exactly this for the RDBMS client).  Being
    #: dispatch work, it throttles throughput without inflating measured
    #: latency, which is why sharded-store latencies *drop* as nodes are
    #: added (Section 5.6).
    client_connection_overhead: float = 0.0
    #: Request/response payload framing (bytes beyond the record itself).
    request_overhead_bytes: int = 50
    response_overhead_bytes: int = 30


class StoreSession:
    """One client connection: the unit the workload threads drive.

    ``read``/``insert``/``update``/``scan``/``delete`` return generator
    process bodies.  Every store reaches the server its client library
    picked through one hop, :meth:`_call_server`.  The defaults of
    ``read``, ``insert`` and ``delete`` are a client-sharded store's
    whole request path: hash in the client (:meth:`Store.route`), that
    hop to the server, the store's ``_apply_read`` / ``_apply_write`` /
    ``_apply_delete`` run there.  A store with a hop the client does not
    see (a coordinator, an entry node, a handler pool) overrides them.
    ``update`` defaults to the insert path (APM data is append-only; the
    stores treat both as upserts).
    """

    #: Trace annotation naming the server a client-routed call went to.
    route_label = "shard"

    def __init__(self, store: "Store", client_node: Node, index: int):
        self.store = store
        self.client = client_node
        self.index = index
        store.sessions_open += 1

    def _call_server(self, server: int, handler, request_bytes: int,
                     response_bytes: int, /, **route):
        """Process: the client hop — one round trip to server index
        ``server``, the one the client library picked (a shard, a
        coordinator, an entry host, a region server).

        Annotates the active span with exactly ``route``, checks a
        connection out of the server's pool if the store gates there
        (:attr:`Store.connection_pool`; an exhausted pool refuses at
        once), pays the driver's CPU, runs ``handler`` on the server,
        and returns the connection.  The leading arguments are
        positional-only, so a route may name a ``server`` of its own.
        """
        store = self.store
        store.annotate(**route)
        gate = store._gates[server] if store._gates else None
        if gate is not None:
            gate.try_admit()
        try:
            yield from store.client_cpu(self.client)
            result = yield from store.cluster.network.rpc(
                self.client, store.cluster.servers[server],
                request_bytes, response_bytes, handler,
            )
        finally:
            if gate is not None:
                gate.release()
        return result

    def read(self, key: str):
        store = self.store
        server = store.route(key)
        return self._call_server(
            server, store._apply_read(server, key),
            store.request_bytes(key), store.response_bytes(1),
            **{self.route_label: server})

    def insert(self, key: str, row: tuple, *stamp):
        """``stamp`` is what a versioned store's ``_apply_write`` takes
        beside the write itself (its session passes the version)."""
        store = self.store
        server = store.route(key)
        return self._call_server(
            server, store._apply_write(server, key, row, *stamp),
            store.request_bytes(key, row),
            store.response_bytes(0), **{self.route_label: server})

    def scan(self, start_key: str, count: int):  # pragma: no cover
        raise NotImplementedError
        yield

    def update(self, key: str, row: tuple):
        """Default: updates take the insert/upsert path."""
        return self.insert(key, row)

    def delete(self, key: str):
        store = self.store
        server = store.route(key)
        return self._call_server(
            server, store._apply_delete(server, key),
            store.request_bytes(key), store.response_bytes(0),
            **{self.route_label: server})

    def execute(self, op: OpType, key: str, row: Optional[tuple] = None,
                scan_length: int = 0):
        """Dispatch one operation: the generator of the store-level call
        (delegate to it; it returns the operation's result).

        A write carries its ``row`` (``None`` for a column not written)
        to the store as it is; a read or scan returns the rows the store
        holds, as it holds them.

        Inside a sampled trace the whole store-level call is wrapped in a
        ``<store>.<op>`` span; the store implementations annotate it with
        routing decisions (coordinator, region, shard, partition).
        """
        sim = self.store.sim
        if sim.tracer is not None and sim.context is not None:
            return self._traced_execute(op, key, row, scan_length)
        return self._dispatch(op, key, row, scan_length)

    def _traced_execute(self, op: OpType, key: str, row: Optional[tuple],
                        scan_length: int):
        tracer = self.store.sim.tracer
        span = tracer.start_span(
            f"{self.store.name}.{op.value}", "store", {"key": key})
        try:
            result = yield from self._dispatch(op, key, row, scan_length)
        finally:
            tracer.end_span(span)
        return result

    def _dispatch(self, op: OpType, key: str, row: Optional[tuple],
                  scan_length: int):
        if op is OpType.READ:
            return self.read(key)
        if op is OpType.INSERT:
            return self.insert(key, row)
        if op is OpType.UPDATE:
            return self.update(key, row)
        if op is OpType.SCAN:
            return self.scan(key, scan_length)
        if op is OpType.DELETE:
            return self.delete(key)
        raise ValueError(f"unknown op {op!r}")  # pragma: no cover


class Store:
    """Base class for the six store deployments."""

    name: str = "abstract"
    supports_scans: bool = True
    #: Whether rebalance data movement streams through the source and
    #: destination disks (in-memory stores ship over the NIC only).
    rebalance_uses_disk: bool = True
    #: Name prefix of the per-server client connection pools, for a
    #: store whose honest admission point is the driver's pool (no
    #: executor channel in the model: MySQL, Voldemort); ``None`` for
    #: the stores that admit at a channel or shed at a coordinator.
    connection_pool: Optional[str] = None
    #: Why this deployment cannot change topology online, if it cannot
    #: (a replicated ring keeps keys on servers that do not own them).
    reshard_refusal: Optional[str] = None

    def __init__(self, cluster: Cluster, schema: RecordSchema = APM_SCHEMA,
                 profile: Optional[ServiceProfile] = None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.schema = schema
        self.profile = profile or self.default_profile()
        self.errors = 0
        self.sessions_open = 0
        #: Per-server op counters; populated by :meth:`attach_metrics`.
        #: ``None`` is the disabled fast path — op application only pays
        #: one identity check per server-side op when metrics are off.
        self._node_ops = None
        #: Active :class:`~repro.overload.policy.OverloadPolicy`, or
        #: ``None`` (the default: unbounded queues, no shedding).
        self.overload = None
        #: Requests shed by store-level admission logic (e.g. the
        #: Cassandra coordinator); channel/gate rejections are counted
        #: on the channels and gates themselves.
        self.shed_ops = 0
        #: Connection-pool gates, one per admitted server while a
        #: policy with a bound is armed (see :attr:`connection_pool`).
        self._gates: list[AdmissionGate] = []
        #: Server indices this store routes to, and how many servers it
        #: holds state for (drained ones included: indices are stable).
        self._members = list(range(cluster.n_servers))
        self._admitted = cluster.n_servers
        #: Registry captured by :meth:`attach_metrics` so servers added
        #: later (scale-out) get their telemetry registered too.
        self._registry = None
        #: Write versions, for a store that keeps them (the replicated
        #: ones): a clock stamped where a write enters the store and
        #: ``versions[replica][key]``, the newest stamp each replica has
        #: applied — what quorum reads merge on.  Pure bookkeeping: no
        #: simulated cost, so unreplicated runs are byte-identical.
        self._write_clock = 0
        self.versions: dict[int, dict[str, int]] = defaultdict(dict)

    # -- metrics ---------------------------------------------------------------

    def attach_metrics(self, registry) -> None:
        """Register this deployment's telemetry with ``registry``.

        The base registration covers what every store shares: open
        sessions, accumulated errors, and a per-server operation counter
        (the saturation analyzer's op-rate column).  Concrete stores
        extend it with engine-level probes (memtable bytes, SSTable
        counts, handler queues, replication fan-out).
        """
        self._registry = registry
        registry.probe("store_sessions",
                       lambda: float(self.sessions_open), store=self.name)
        registry.meter("store_errors_total",
                       lambda: float(self.errors), store=self.name)
        self._node_ops = [
            registry.counter("store_node_ops", node=node.name,
                             store=self.name)
            for node in self.cluster.servers
        ]
        registry.meter("store_shed_total",
                       lambda: float(self.total_shed()), store=self.name)
        registry.probe("store_overload_queue_depth",
                       lambda: float(self.overload_queue_depth()),
                       store=self.name)
        for index in range(len(self.cluster.servers)):
            self._attach_node_metrics(registry, index)

    def _attach_node_metrics(self, registry, index: int) -> None:
        """Register per-server telemetry for server ``index``.

        Concrete stores override this instead of looping inside
        :meth:`attach_metrics`, so a server added by the control plane
        mid-run gets exactly the same instrumentation as the originals.
        """

    def _note_server_added(self, index: int) -> None:
        """Wire telemetry for a server appended after :meth:`attach_metrics`."""
        if self._registry is None:
            return
        if self._node_ops is not None:
            self._node_ops.append(
                self._registry.counter(
                    "store_node_ops",
                    node=self.cluster.servers[index].name,
                    store=self.name))
        self._attach_node_metrics(self._registry, index)

    def note_node_op(self, node_index: int) -> None:
        """Count one server-side op on server ``node_index``.

        No-op (one ``is None`` check) when metrics are disabled.
        """
        if self._node_ops is not None:
            self._node_ops[node_index].inc()

    def annotate(self, **meta) -> None:
        """Tag the active span with a routing decision (coordinator,
        region, shard, partition, replicas); outside a sampled trace
        there is no span and nothing happens."""
        sim = self.sim
        if sim.tracer is not None and sim.context is not None:
            sim.tracer.annotate(**meta)

    # -- hooks a concrete store implements ---------------------------------

    @classmethod
    def default_profile(cls) -> ServiceProfile:  # pragma: no cover - abstract
        raise NotImplementedError

    def load(self, records: Iterable[tuple[str, tuple]]) -> None:
        """Bulk-load the data set (the paper's load phase): ``records``
        are ``(key, row)`` pairs, held as they come.

        Purely functional: the load phase is not part of the measured run,
        so no simulated time is charged.
        """
        raise NotImplementedError

    def session(self, client_node: Node, index: int) -> StoreSession:
        """Open one client connection."""
        raise NotImplementedError

    def route(self, key: str) -> int:
        """The server a client library sends ``key`` to.  Where the hash
        lives in the client a shard is a server, so the default is the
        placement hook the reshard loop already uses."""
        return self._shard_of(key)

    def homes(self, key: str) -> list[int]:
        """The servers holding a copy of ``key`` — what an auditor
        checks a declared loss against.  One copy on the routed server
        unless the store replicates or routes some other way."""
        return [self.route(key)]

    def warm_caches(self) -> None:
        """Populate page caches as a completed load phase leaves them.

        After the paper's load phase the OS page cache holds the working
        set up to its capacity (all of it on Cluster M, a fraction on
        Cluster D).  Stores with on-disk structures override this to
        mark their blocks resident; in-memory stores need nothing.
        """

    # -- overload / admission control ------------------------------------------

    def overload_channels(self):
        """The store-executor :class:`Resource` channels, if any.

        These are the queues ``configure_overload`` bounds (Redis event
        loops, VoltDB sites + sequencer, HBase handler pools).  Stores
        without an executor channel return the default empty list and
        admission-control at the connection pool instead.
        """
        return []

    def admission_gates(self):
        """The active connection-pool gates (empty unless configured)."""
        return self._gates

    def configure_overload(self, policy) -> None:
        """Arm this deployment's admission control from ``policy``.

        Every executor channel's queue is bounded at
        ``policy.max_queue`` (0 is a bound: refuse whatever would wait;
        ``None`` is none) and a :attr:`connection_pool` store gets a
        gate of that many connections per server; the Cassandra
        coordinator reads the policy itself.  ``None`` disarms it all.
        """
        if (policy is not None and self.connection_pool is not None
                and policy.max_queue == 0):
            raise ValueError(
                f"{self.name} admits at its client connection pools and a "
                "pool of max_queue=0 connections admits nothing; use "
                "max_queue >= 1, or None for no bound")
        self.overload = policy
        self._gates = []
        self._arm_admission()

    def _arm_admission(self) -> None:
        """Bring every admission point in line with the active policy.

        Idempotent for channels and incremental for gates, so
        :meth:`grow` arms a new server's loop / sites / handlers / pool
        through the same code as :meth:`configure_overload`.
        """
        bound = None if self.overload is None else self.overload.max_queue
        for channel in self.overload_channels():
            channel.max_queue = bound
        if self.connection_pool is not None and bound is not None:
            self._gates.extend(
                AdmissionGate(bound, f"{self.connection_pool}:{node.name}")
                for node in self.cluster.servers[len(self._gates):
                                                 self._admitted])

    def total_shed(self) -> int:
        """Requests rejected by admission control, across all layers."""
        shed = self.shed_ops
        shed += sum(ch.stats.rejected for ch in self.overload_channels())
        shed += sum(gate.rejected for gate in self._gates)
        return shed

    def overload_queue_depth(self) -> int:
        """Instantaneous depth of the admission-controlled queues."""
        return sum(ch.queue_length for ch in self.overload_channels())

    # -- fault handling --------------------------------------------------------

    @classmethod
    def retry_policy(cls) -> RetryPolicy:
        """Default client-side retry behaviour against this store.

        The base policy retries an infrastructure fault once — a plain
        driver reconnect.  Stores with real failover (Cassandra's
        coordinator rerouting, the HBase client riding out a region
        reassignment) override this with deeper retry budgets.
        """
        return RetryPolicy()

    def on_node_down(self, node: Node) -> None:
        """Chaos-controller hook: ``node`` just crashed.

        Stores with an active control plane (the HBase master) override
        this to start failure handling; the default architecture has no
        component that notices.
        """

    def on_node_up(self, node: Node) -> None:
        """Chaos-controller hook: ``node`` just restarted.

        Cassandra overrides this to replay hinted handoffs.
        """

    # -- what a replicated store inherits ---------------------------------------
    #
    # Who fans out is the store's model (Cassandra's coordinator, which
    # may hold a replica itself; Voldemort's client, which never does);
    # counting the live, stamping versions, starting one request per
    # replica and merging the answers do not depend on who asks.

    def node_is_up(self, index: int) -> bool:
        """Liveness of server ``index`` as a failure detector sees it: a
        partitioned node still *looks* up — the sender only learns the
        truth when its request times out."""
        return self.cluster.servers[index].up

    def live_replicas(self, replicas: Sequence[int], needed: int,
                      shortfall) -> list[int]:
        """The live ones among ``replicas``, in order; with fewer than
        ``needed`` of them the operation is unavailable, in the words of
        ``shortfall(how many are live)``."""
        live = [r for r in replicas if self.node_is_up(r)]
        if len(live) < needed:
            raise UnavailableError(shortfall(len(live)))
        return live

    def next_write_version(self) -> int:
        """The version stamped on the next write entering the store."""
        self._write_clock += 1
        return self._write_clock

    def _stamp(self, replica: int, key: str, version: int) -> None:
        """``replica`` applied ``version`` of ``key`` (a late, older
        write does not turn its record of the key back)."""
        versions = self.versions[replica]
        if version > versions.get(key, 0):
            versions[key] = version

    def _apply_versioned_read(self, replica: int, key: str):
        """Replica-side read returning ``(row, version held)`` — one
        answer of a quorum read (a digest/data read resolution collapsed
        to one round)."""
        row = yield from self._apply_read(replica, key)
        return row, self.versions[replica].get(key, 0)

    def fan_out(self, origin: Node, replicas: Sequence[int], k: int,
                request_bytes: int, response_bytes: int, apply, *args):
        """Start ``apply(replica, *args)`` on every one of ``replicas`` at
        once; ``(acks, quorum)`` — the spawned processes in replica order
        and the event that fires once ``k`` of them succeeded.

        A replica living on ``origin`` is served on the spot, every other
        one over an RPC from it: a coordinator that holds a replica reads
        and writes its own copy locally, a client machine never is one.
        The quorum absorbs ``len(replicas) - k`` failures (a crashed or
        partitioned replica) and fails with the one after; stragglers
        finish in the background.
        """
        sim = self.sim
        servers = self.cluster.servers
        rpc = self.cluster.network.rpc
        acks = [
            sim.process(
                apply(replica, *args) if servers[replica] is origin
                else rpc(origin, servers[replica], request_bytes,
                         response_bytes, apply(replica, *args)))
            for replica in replicas]
        return acks, sim.k_of(acks, k)

    # -- topology (elastic control plane) -------------------------------------

    def members(self) -> list[int]:
        """Indices into ``cluster.servers`` this store currently routes to."""
        return list(self._members)

    def grow(self, node: Node) -> list[tuple[int, int, int]]:
        """Functionally admit ``node`` (already in ``cluster.servers``).

        Rebalances ownership structures and *moves the data at once* —
        the routing switch is atomic at decision time, and mutations
        already in flight redirect to the current owner at apply time
        (see :meth:`rebalance_moves`), so no acknowledged write can fall
        between old and new owners.  The
        physical cost is returned, not charged: a list of
        ``(src_index, dst_index, nbytes)`` moves for the topology layer
        to bill against simulated disks and NICs.
        """
        if self.reshard_refusal:
            raise ValueError(self.reshard_refusal)
        index = self.cluster.servers.index(node)
        if index != self._admitted:
            raise ValueError("servers must be admitted in cluster order")
        self._add_server(node, index)
        self._admitted += 1
        self._arm_admission()
        self._members.append(index)
        moves = self._rebalance()
        self._note_server_added(index)
        return moves

    def shrink(self, index: int) -> list[tuple[int, int, int]]:
        """Functionally drain server ``index`` ahead of its retirement.

        The inverse of :meth:`grow`: ownership moves off the server and
        its data is re-homed immediately; the returned moves carry the
        simulated IO cost.  The caller retires the node afterwards.
        """
        if self.reshard_refusal:
            raise ValueError(self.reshard_refusal)
        if index not in self._members:
            raise ValueError(f"server {index} is not a member")
        if len(self._members) == 1:
            raise ValueError("cannot shrink below one server")
        self._members.remove(index)
        return self._rebalance()

    def rebalance_moves(self) -> list[tuple[int, int, int]]:
        """Catch-up sweep: re-home anything that missed the last rebalance.

        :meth:`grow`/:meth:`shrink` switch routing atomically, but an
        operation *in flight* across the switch was routed under the old
        map and its server-side apply redirects to the current owner
        (the MOVED / NotServingRegion retry every real client performs).
        Billing that redirected landing is this sweep's job: the
        topology layer calls it after charging the main move bill and
        keeps calling until a pass finds nothing stale — the catch-up
        passes every real resharding tool runs before declaring a
        migration complete.  It doubles as a conformance oracle: on a
        quiesced store a clean pass proves no key is stranded off its
        owner.  A deployment that refuses to reshard has nothing to
        sweep: its replicas hold keys they do not own on purpose.
        """
        return [] if self.reshard_refusal else self._migrate()

    def _rebalance(self) -> list[tuple[int, int, int]]:
        """Re-home ownership over the current members; the move bill.
        HBase overrides this with its region balancer."""
        self._rebuild_routing()
        return self._migrate()

    def _migrate(self) -> list[tuple[int, int, int]]:
        """Move every entry living off its owner there; the move bill."""
        moved: dict[tuple[int, int], int] = {}
        for src, entries in self._shard_entries():
            stale = []
            for key, value in entries:
                dst = self._shard_of(key)
                if dst != src:
                    stale.append((key, value, dst))
            for key, value, dst in stale:
                bill = self._move_entry(key, value, src, dst)
                if bill is not None:
                    pair = bill[:2]
                    moved[pair] = moved.get(pair, 0) + bill[2]
        return [(src, dst, nbytes)
                for (src, dst), nbytes in sorted(moved.items())]

    # -- what an elastic store implements ----------------------------------

    def _add_server(self, node: Node, index: int) -> None:
        """Create the (empty) per-server state of a server being admitted."""
        raise NotImplementedError(
            f"{self.name} does not support online topology changes")

    def _rebuild_routing(self) -> None:
        """Recompute key ownership over ``self._members``."""
        raise NotImplementedError

    def _shard_entries(self):
        """``(shard, [(key, value), ...])`` for every shard holding data,
        each listed only when the loop reaches it.  The default — no
        shard — is a store that keeps no entry-level placement."""
        return ()

    def _shard_of(self, key: str) -> int:
        """The shard ``key`` belongs on under the current routing."""
        raise NotImplementedError

    def _move_entry(self, key: str, value, src: int,
                    dst: int) -> Optional[tuple[int, int, int]]:
        """Move one entry from shard ``src`` to ``dst``; its bill as
        ``(src_server, dst_server, nbytes)``, or ``None`` if nothing is
        to be charged (it could not move, or never left the server)."""
        raise NotImplementedError

    # -- connection policy ---------------------------------------------------

    @classmethod
    def clients_for(cls, n_servers: int, servers_per_client: int) -> int:
        """Workload-generator machines to provision for ``n_servers``.

        The paper used roughly one client machine per three servers and
        doubled that for Redis; stores override as needed.
        """
        return max(1, -(-n_servers // servers_per_client))

    def connections(self, default_per_node: int) -> int:
        """Total client connections for this deployment.

        The paper used 128 per server node on Cluster M but had to reduce
        the thread count for some drivers (Section 6); stores override this
        to model those client-library limits.
        """
        return default_per_node * self.cluster.n_servers

    def min_window(self, connections: int) -> tuple[int, int]:
        """Minimum (warmup_ops, measured_ops) for a steady-state estimate.

        Stores whose clients buffer or batch need windows spanning several
        full buffer cycles, or the measurement sees only the cheap
        buffered path.
        """
        return connections, 8 * connections

    # -- shared cost helpers --------------------------------------------------

    def server_cost(self, base_cpu: float) -> float:
        """Server CPU for one op, inflated by the open-connection count."""
        overhead = self.profile.per_connection_overhead * self.sessions_open
        return base_cpu * (1.0 + overhead)

    def dispatch_cpu(self, client: Node):
        """Process: the un-timed client-side work between operations."""
        cost = self.profile.dispatch_cpu
        if cost > 0:
            overhead = (self.profile.client_connection_overhead
                        * self.sessions_open)
            yield from client.cpu(cost * (1.0 + overhead))

    def record_bytes(self, row: tuple) -> int:
        """Wire payload of one row's written values (a ``None`` column
        was not written and weighs nothing)."""
        return sum(map(len, filter(None, row)))

    def request_bytes(self, key: str, row: tuple | None = None) -> int:
        """Wire size of a request naming ``key``, plus the row a write
        carries."""
        size = self.profile.request_overhead_bytes + len(key)
        if row is not None:
            size += self.record_bytes(row)
        return size

    def response_bytes(self, n_records: int = 1) -> int:
        """Wire size of a response carrying ``n_records`` records."""
        per_record = self.schema.key_length + self.schema.raw_value_bytes + 20
        return self.profile.response_overhead_bytes + n_records * per_record

    def client_cpu(self, client: Node):
        """Process: the client-side driver work inside the timed call."""
        if self.profile.client_cpu > 0:
            yield from client.cpu(self.profile.client_cpu)

    def executor_work(self, node: Node, cpu_seconds: float, action):
        """Process: what a single-threaded executor does under its slot.

        ``cpu_seconds`` of reference-core time on ``node`` — the slot
        *is* the thread, so no CPU queue is involved — then the
        functional work, whose result is returned.
        """
        yield self.sim.timeout(cpu_seconds / (node.spec.core_speed
                                              * node.speed_factor))
        return action()

    def cached_read_io(self, node: Node, blocks: Sequence[tuple]):
        """Process: page-cache-filtered random reads for ``blocks``.

        Each block id is looked up in the node's page cache; misses pay a
        random 4 KiB disk read.  On Cluster M (cache >= data) this is free after
        warm-up; on Cluster D it is the dominant read cost.
        """
        for block in blocks:
            if not node.page_cache.access(block):
                yield from node.disk.read(4096, sequential=False)

    # -- diagnostics ----------------------------------------------------------

    def disk_bytes_per_server(self) -> list[int]:
        """On-disk footprint per server (Figure 17); in-memory stores: 0."""
        return [0 for __ in self.cluster.servers]


#: Records a load round takes in: every round ends with each LSM engine's
#: buffered writes flushed into a run, as a real load phase's memtable
#: flushes leave them.
LOAD_ROUND_RECORDS = 4000

#: Records a load routes with one batched hash.  A batch's records stay
#: alive until it is loaded; at this size most die before the collector
#: promotes them to its oldest generation, as a record-at-a-time load's
#: did.  Batches of 4 000 promoted every record and doubled the full
#: collections of a 160 000-record HBase load (5 -> 10).
LOAD_BATCH_RECORDS = 256


def load_batches(records: Iterable[tuple[str, tuple]],
                 route_many: Callable[[list[str]], Sequence]
                 ) -> Iterator[tuple[str, tuple, object]]:
    """``(key, row, route)`` of each ``(key, row)`` of ``records``, in
    order, with where ``route_many`` sends the key.  The keys are routed
    ``LOAD_BATCH_RECORDS`` at a time — one batched hash a batch, not one
    a record."""
    records = iter(records)
    while batch := list(islice(records, LOAD_BATCH_RECORDS)):
        routes = route_many([key for key, __ in batch])
        for (key, row), route in zip(batch, routes):
            yield key, row, route


def load_lsm_rounds(records: Iterable[tuple[str, tuple]], engines: Sequence,
                    homes_many: Callable[[list[str]], Sequence]) -> None:
    """Load the ``(key, row)`` pairs ``records`` into the LSM ``engines``,
    round by round: each row into the engines ``homes_many`` names for
    its key, a flush of every engine when a round is full, then one minor
    compaction pass an engine, as a real load phase gets — a couple of
    runs a node, not one major-compacted file and not the whole flush
    history (the read amplification the Bloom-filter ablation measures).
    """
    loaded = 0
    for key, row, homes in load_batches(records, homes_many):
        for home in homes:
            engines[home].put(key, row)
        loaded += 1
        if loaded % LOAD_ROUND_RECORDS == 0:
            for engine in engines:
                engine.flush()
    for engine in engines:
        engine.flush()
        engine.maybe_compact()


def newest_cell(acks):
    """The row of the answer carrying the highest version among the
    finished versioned reads ``acks`` (the first of equals): whenever the
    read set overlaps the last write quorum, the latest acked write."""
    return max((ack.value for ack in acks), key=lambda cell: cell[1])[0]
