"""Topology actuation: scale-out, scale-in, replacement — with real IO.

:class:`ClusterTopology` is the actuator half of the control plane.  The
stores' :meth:`~repro.stores.base.Store.grow` / ``shrink`` methods are
*functional*: they re-home ownership and move the data atomically at
decision time and return the bill — ``(src, dst, nbytes)`` moves.
Operations already in flight across the switch redirect to the current
owner at apply time (each store's MOVED/NotServingRegion analogue), and
:meth:`~repro.stores.base.Store.rebalance_moves` catch-up passes sweep
anything that landed mid-charge — together they guarantee no
acknowledged write is stranded on an old owner.  This layer
pays that bill against the simulated hardware: a sequential read off the
source disk, a NIC-to-NIC transfer, and a sequential write on the
destination for disk-backed stores; NIC-only for in-memory stores
(``rebalance_uses_disk = False``).  Rebalance traffic therefore contends
with foreground operations for the same disks and NICs, exactly the
interference a real resharding causes.

The class also keeps the provisioning ledger — per-node active intervals
— from which :meth:`node_seconds` computes the rental cost the
autoscaling benchmark compares against static peak provisioning.
"""

from __future__ import annotations

from typing import Optional

from repro.metrics.instrument import instrument_node
from repro.sim.cluster import Cluster, Node
from repro.stores.base import Store

__all__ = ["ClusterTopology"]


class ClusterTopology:
    """Executes topology changes for one deployed store."""

    def __init__(self, cluster: Cluster, store: Store, registry=None):
        self.cluster = cluster
        self.store = store
        #: Metrics registry new nodes are wired into (``None`` = off).
        self.registry = registry
        #: Rebalance accounting: individual billed moves and bytes.
        self.moves_billed = 0
        self.bytes_moved = 0
        #: Provisioning ledger: node name -> activation time; retirement
        #: closes the interval.  Initial servers are active from t=0.
        self._provisioned_at = {
            node.name: 0.0 for node in cluster.servers if not node.retired}
        self._retired_at: dict[str, float] = {}

    def youngest_live_member(self) -> Optional[Node]:
        """The last-joined store member that is up and not retired —
        the node drained with the least data, and the default chaos
        victim."""
        for index in reversed(self.store.members()):
            node = self.cluster.servers[index]
            if node.up and not node.retired:
                return node
        return None

    # -- actions (simulation process bodies) ---------------------------------

    def scale_out(self, provision_delay_s: float = 0.0):
        """Process: provision one node and admit it to the store.

        After the provisioning lead time the node joins the cluster, its
        telemetry is registered, the store re-homes ownership atomically
        (per-store semantics: token handoff, region reassignment, client
        ring remap), and the data movement is charged to the simulated
        disks and NICs.  Returns the new :class:`Node`.
        """
        sim = self.cluster.sim
        if provision_delay_s > 0:
            yield sim.timeout(provision_delay_s)
        node = self.cluster.add_server()
        self._provisioned_at[node.name] = sim.now
        if self.registry is not None:
            instrument_node(self.registry, node)
        moves = self.store.grow(node)
        yield from self._charge(moves)
        yield from self._catch_up()
        return node

    def scale_in(self, node: Node):
        """Process: drain ``node``'s data, then retire it.

        The store's ``shrink`` re-homes ownership immediately (no window
        where a write could land on the leaving node), the move bill is
        charged, and only then is the node powered off and struck from
        the rental ledger.
        """
        sim = self.cluster.sim
        index = self.cluster.servers.index(node)
        moves = self.store.shrink(index)
        yield from self._charge(moves)
        yield from self._catch_up()
        self.cluster.retire_server(node)
        self._retired_at[node.name] = sim.now
        return node

    def replace(self, node: Node, provision_delay_s: float = 0.0):
        """Process: bring a crashed node back into service.

        Replacement is modelled as recovery-in-slot: durable state
        survives, caches are cold, and the store's ``on_node_up`` hook
        runs its failure-handling epilogue (hint replay, region
        reassignment back).  The node was never retired, so its rental
        interval keeps accruing — crashed capacity still costs money.
        """
        sim = self.cluster.sim
        if provision_delay_s > 0:
            yield sim.timeout(provision_delay_s)
        if node.retired or node.up:
            return node
        node.recover()
        self.store.on_node_up(node)
        return node

    def _catch_up(self):
        """Process: bill catch-up passes until the store reports clean.

        Charging the main move bill takes simulated time, during which
        operations routed under the old map keep landing (redirected to
        their current owners).  Real resharding tools run catch-up
        passes until one comes back empty; so does this loop — each pass
        re-homes and bills whatever drifted while the previous pass was
        being paid for.  Convergence is guaranteed: in-flight work is
        bounded by the stores' admission queues.
        """
        while True:
            extra = self.store.rebalance_moves()
            if not extra:
                return
            yield from self._charge(extra)

    def _charge(self, moves):
        """Process: pay for rebalance data movement, move by move.

        Disk-backed stores stream each move through the source disk, the
        wire, and the destination disk; in-memory stores pay the wire
        only.  Moves are charged sequentially — real rebalancers throttle
        to one stream precisely to bound interference with foreground
        traffic.
        """
        servers = self.cluster.servers
        network = self.cluster.network
        uses_disk = self.store.rebalance_uses_disk
        for src, dst, nbytes in moves:
            if nbytes <= 0:
                continue
            self.moves_billed += 1
            self.bytes_moved += nbytes
            source, target = servers[src], servers[dst]
            if uses_disk:
                yield from source.disk.read(nbytes, sequential=True)
            yield from network.transfer(source.name, target.name, nbytes)
            if uses_disk:
                yield from target.disk.write(nbytes, sequential=True,
                                             sync=True)

    # -- accounting ----------------------------------------------------------

    def node_seconds(self, until: Optional[float] = None) -> float:
        """Total provisioned node-seconds through ``until`` (default now).

        The autoscaling economy metric: what the fleet would be billed
        for, summed over every node's active interval.
        """
        if until is None:
            until = self.cluster.sim.now
        total = 0.0
        for name, start in self._provisioned_at.items():
            end = self._retired_at.get(name, until)
            total += max(0.0, end - start)
        return total
