"""The chaos controller: executes a fault schedule against a cluster.

The controller is itself a simulation process.  At each scheduled fault
time it drives the node lifecycle — :meth:`~repro.sim.cluster.Node.fail`
drains the node's resource queues and drops it off the network,
:meth:`~repro.sim.cluster.Node.recover` brings it back with cold caches —
and applies partition filters / disk degradations / gray failures at the
network, disk and CPU layers.  Deployed stores subscribe as listeners so
they can react the way their real counterparts do (Cassandra replays
hinted handoffs, the HBase master reassigns regions).

The controller also emits the **declared-loss manifest** the audit layer
reconciles durability against: when a crash is scheduled with no later
restart, every subscribed store is asked (via
:meth:`~repro.stores.base.Store.declared_loss`) whether losing that node
loses single-copy data *by design* — a client-sharded Redis/MySQL shard,
an RF=1 token range.  Acked writes that become unreadable for a
manifest-declared reason are reported as declared losses, not
durability violations; everything else is a violation.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.schedule import FaultAction, FaultKind, FaultSchedule
from repro.sim.cluster import Cluster, Node
from repro.sim.kernel import Process

__all__ = ["ChaosController"]


class ChaosController:
    """Drives a :class:`FaultSchedule` against a live cluster."""

    def __init__(self, cluster: Cluster, schedule: FaultSchedule):
        self.cluster = cluster
        self.schedule = schedule
        # Build-time validation: a schedule naming unknown nodes or
        # healing a partition that never happened fails here, not
        # mid-run (clients are valid chaos targets too).
        schedule.validate([node.name for node in
                           cluster.servers + cluster.clients])
        self._listeners: list[object] = []
        #: Applied actions as ``(sim_time, description)`` pairs.
        self.log: list[tuple[float, str]] = []
        #: Optional :class:`~repro.obs.recorder.FlightRecorder`: every
        #: applied action lands in the observability ring too.
        self.recorder = None
        #: Declared-loss manifest: dict entries for data the schedule
        #: loses *by design* (crash with no scheduled restart on a
        #: store holding single-copy state for that node).
        self.loss_manifest: list[dict] = []
        #: Node name -> time of its crash that no restart follows (an
        #: earlier crash of the same node, restarted since, loses nothing).
        self._lost_at = {
            node: down_since
            for node in {a.target for a in schedule.actions()
                         if a.kind is FaultKind.CRASH}
            for down_since, end in schedule.outage_windows(node)
            if end == float("inf")
        }

    def subscribe(self, listener: object) -> None:
        """Register a listener with ``on_node_down`` / ``on_node_up`` hooks.

        Both hooks are optional; stores use them for failure *handling*
        (hinted-handoff replay, region reassignment).  Listeners with a
        ``declared_loss`` hook also contribute to the loss manifest.
        """
        self._listeners.append(listener)

    def start(self) -> Optional[Process]:
        """Launch the controller process (no-op for an empty schedule)."""
        if not len(self.schedule):
            return None
        return self.cluster.sim.process(self._run(), name="chaos")

    # -- execution -----------------------------------------------------------

    def _run(self):
        sim = self.cluster.sim
        for action in self.schedule.actions():
            delay = action.at - sim.now
            if delay > 0:
                yield sim.timeout(delay)
            self._apply(action)

    def _notify(self, hook: str, node: Node) -> None:
        for listener in self._listeners:
            method = getattr(listener, hook, None)
            if method is not None:
                method(node)

    def _declare_losses(self, node: Node) -> None:
        """Record by-design data losses for a permanently crashed node."""
        if node not in self.cluster.servers:
            return  # a crashed client loses no server-side data
        for listener in self._listeners:
            probe = getattr(listener, "declared_loss", None)
            if probe is None:
                continue
            reason = probe(node)
            if reason:
                self.loss_manifest.append({
                    "t": self.cluster.sim.now,
                    "node": node.name,
                    "store": getattr(listener, "name", type(listener).__name__),
                    "reason": reason,
                })

    def _apply(self, action: FaultAction) -> None:
        cluster = self.cluster
        # Recorded before the effect lands: a listener-triggered dump
        # (e.g. node-failure) must contain its own cause.
        if self.recorder is not None:
            self.recorder.record("chaos", action=action.describe())
        if action.kind is FaultKind.CRASH:
            node = cluster.node(action.target)
            node.fail()
            if self._lost_at.get(action.target) == action.at:
                self._declare_losses(node)
            self._notify("on_node_down", node)
        elif action.kind is FaultKind.RESTART:
            node = cluster.node(action.target)
            node.recover()
            self._notify("on_node_up", node)
        elif action.kind is FaultKind.PARTITION:
            cluster.network.partition(action.groups)
        elif action.kind is FaultKind.HEAL:
            cluster.network.heal()
        elif action.kind is FaultKind.SLOW_DISK:
            cluster.node(action.target).disk.degrade(action.factor)
        elif action.kind is FaultKind.RESTORE_DISK:
            cluster.node(action.target).disk.restore()
        elif action.kind is FaultKind.FLAKY_NIC:
            cluster.network.degrade_link(action.target, loss=action.loss,
                                         jitter_s=action.jitter_s)
        elif action.kind is FaultKind.RESTORE_NIC:
            cluster.network.restore_link(action.target)
        elif action.kind is FaultKind.ZOMBIE:
            # Deliberately no on_node_down: a zombie is the failure
            # liveness detection cannot see.
            cluster.node(action.target).zombie(action.factor)
        elif action.kind is FaultKind.UNZOMBIE:
            cluster.node(action.target).unzombie()
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown fault kind {action.kind!r}")
        self.log.append((cluster.sim.now, action.describe()))
