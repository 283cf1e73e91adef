"""Switched gigabit-ethernet network model.

The paper's clusters connect all nodes "with a gigabit ethernet network over
a single switch" (Section 3).  We model that topology: each node owns a
full-duplex NIC (separate egress and ingress queues) and the switch itself
is non-blocking, so a transfer is serialised on the sender NIC, delayed by
propagation/switching latency, then serialised on the receiver NIC.

The model captures the two effects the paper's results depend on:

* per-message overhead — small APM records mean the fixed per-packet cost
  dominates, which is why the paper stresses "inefficient resource usage
  for memory, disk and network" with small records (Section 7);
* NIC saturation — a node's ingest rate is ultimately bounded by wire
  bandwidth, which the closed-loop clients can saturate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.sim.faults import (DeadlineExceededError, FlakyLinkError,
                              NodeDownError, PartitionedError)
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.cluster import Node

__all__ = ["NetworkSpec", "Network", "LinkFault", "GIGABIT"]


@dataclass(frozen=True)
class NetworkSpec:
    """Physical parameters of the cluster interconnect."""

    bandwidth_bytes_per_s: float = 125_000_000.0  # 1 Gb/s
    latency_s: float = 100e-6  # one-way propagation + switching
    per_message_overhead_bytes: int = 66  # ethernet + IP + TCP headers
    #: How long a sender waits before giving up on a silently-dropped
    #: message (a partitioned peer): the client-side connect/read timeout.
    #: A *crashed* peer answers with a TCP reset instead, so that failure
    #: costs only one round trip, not this timeout.
    unreachable_timeout_s: float = 0.25

    def wire_time(self, nbytes: int) -> float:
        """Serialisation time for a message of ``nbytes`` payload bytes."""
        total = nbytes + self.per_message_overhead_bytes
        return total / self.bandwidth_bytes_per_s


#: The paper's interconnect: gigabit ethernet through one switch.
GIGABIT = NetworkSpec()


class LinkFault:
    """Gray-failure state of one node's NIC: packet loss and jitter.

    A lossy link is *not* a partition: most messages flow, a seeded
    fraction silently vanish, and delivered messages pick up extra
    latency jitter — the failure mode crash-liveness detection cannot
    see.  The RNG is seeded from the node name so runs stay
    byte-deterministic and independent of which other links degrade.
    """

    __slots__ = ("loss", "jitter_s", "rng", "dropped", "jittered")

    def __init__(self, node_name: str, loss: float, jitter_s: float):
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss probability must be in [0, 1), got {loss}")
        if jitter_s < 0:
            raise ValueError(f"jitter_s must be >= 0, got {jitter_s}")
        self.loss = loss
        self.jitter_s = jitter_s
        self.rng = random.Random(f"flaky-nic:{node_name}")
        self.dropped = 0
        self.jittered = 0


class Network:
    """A single-switch network connecting a set of nodes."""

    def __init__(self, sim: Simulator, spec: NetworkSpec = GIGABIT):
        self.sim = sim
        self.spec = spec
        self._egress: dict[str, Resource] = {}
        self._ingress: dict[str, Resource] = {}
        self._down: set[str] = set()
        #: node name -> partition group id; ``None`` when the net is whole.
        self._partition: dict[str, int] | None = None
        #: node name -> :class:`LinkFault` for degraded NICs (gray failures).
        self._link_faults: dict[str, LinkFault] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_failed = 0
        #: Sends abandoned because the request's deadline had passed.
        self.messages_expired = 0

    def attach(self, node_name: str) -> None:
        """Register a node's NIC queues with the switch."""
        self._egress[node_name] = Resource(
            self.sim, 1, f"nic-out:{node_name}", component="network")
        self._ingress[node_name] = Resource(
            self.sim, 1, f"nic-in:{node_name}", component="network")

    def egress_queue(self, node_name: str) -> Resource:
        """The egress NIC resource for diagnostics."""
        return self._egress[node_name]

    def ingress_queue(self, node_name: str) -> Resource:
        """The ingress NIC resource for diagnostics."""
        return self._ingress[node_name]

    # -- fault state ---------------------------------------------------------

    def set_host_down(self, node_name: str) -> None:
        """Mark a crashed node: its NIC queues drain, peers get resets."""
        self._down.add(node_name)
        self._egress[node_name].shut_down()
        self._ingress[node_name].shut_down()

    def set_host_up(self, node_name: str) -> None:
        """Bring a restarted node back onto the wire."""
        self._down.discard(node_name)
        self._egress[node_name].restore()
        self._ingress[node_name].restore()

    def host_is_down(self, node_name: str) -> bool:
        """Whether ``node_name`` is currently crashed."""
        return node_name in self._down

    def partition(self, groups: Sequence[Iterable[str]]) -> None:
        """Split the switch into isolated groups of nodes.

        Messages within a group flow normally; messages across groups are
        silently dropped (the sender burns its read timeout).  Nodes not
        named in any group form one implicit extra group together.
        """
        membership: dict[str, int] = {}
        for group_id, group in enumerate(groups):
            for name in group:
                membership[name] = group_id
        self._partition = membership

    def heal(self) -> None:
        """Remove any network partition."""
        self._partition = None

    def degrade_link(self, node_name: str, loss: float = 0.0,
                     jitter_s: float = 0.0) -> LinkFault:
        """Make ``node_name``'s NIC flaky: packet loss and/or jitter.

        Every message crossing the degraded link (either direction) is
        dropped with probability ``loss`` (the sender burns its read
        timeout, as for a partition) and delivered messages pick up a
        uniform ``[0, jitter_s)`` delay.  Deterministic per link.
        """
        fault = LinkFault(node_name, loss, jitter_s)
        self._link_faults[node_name] = fault
        return fault

    def restore_link(self, node_name: str) -> None:
        """Clear any gray-failure state on ``node_name``'s NIC."""
        self._link_faults.pop(node_name, None)

    def reachable(self, src: str, dst: str) -> bool:
        """Whether the partition (if any) lets ``src`` reach ``dst``."""
        if self._partition is None or src == dst:
            return True
        implicit = len(self._partition) + 1  # shared group for unlisted nodes
        return (self._partition.get(src, implicit)
                == self._partition.get(dst, implicit))

    # -- data path -----------------------------------------------------------

    def transfer(self, src: str, dst: str, nbytes: int):
        """Move ``nbytes`` from node ``src`` to node ``dst``.

        Returns the generator to delegate to.  Same-node transfers
        (client co-located with a server process) skip the wire entirely
        but still pay a small loopback cost.  Degraded conditions surface
        as exceptions: a crashed *destination* answers with a reset after
        one propagation delay, a crashed *source* means the sending
        process's own node died (it fails immediately), and a partitioned
        destination drops the message so the sender waits out its read
        timeout before failing.
        """
        sim = self.sim
        tracer = sim.tracer
        if tracer is None or sim.context is None:
            return self._transfer(src, dst, nbytes)
        return self._traced_transfer(tracer, src, dst, nbytes)

    def _traced_transfer(self, tracer, src: str, dst: str, nbytes: int):
        outer = tracer.start_span(
            "net.transfer", "network",
            {"src": src, "dst": dst, "bytes": nbytes})
        try:
            yield from self._transfer(src, dst, nbytes)
        finally:
            tracer.end_span(outer)

    def _transfer(self, src: str, dst: str, nbytes: int):
        sim = self.sim
        deadline = sim.deadline  # inlined sim.deadline_exceeded()
        if deadline is not None and sim._now >= deadline:
            # A request that is already late never reaches the wire.
            self.messages_expired += 1
            raise DeadlineExceededError(
                f"deadline passed before send {src} -> {dst}")
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if src in self._down:
            self.messages_failed += 1
            raise NodeDownError(f"{src} is down", node=src)
        if src == dst:
            # Loopback: the timer's whole lifecycle is this frame, so it
            # comes from (and returns to) the kernel's timeout freelist.
            timeout = sim._timeout_pooled(5e-6)
            yield timeout
            sim._recycle_timeout(timeout)
            return
        if not self.reachable(src, dst):
            self.messages_failed += 1
            yield sim.timeout(self.spec.unreachable_timeout_s)
            raise PartitionedError(
                f"{src} cannot reach {dst} (partition)", node=dst)
        if dst in self._down:
            self.messages_failed += 1
            yield sim.timeout(2 * self.spec.latency_s)  # SYN + RST
            raise NodeDownError(
                f"connection refused: {dst} is down", node=dst)
        if self._link_faults:
            # Gray failures: a flaky NIC on either end of the link.  The
            # branch costs nothing when no link is degraded, so healthy
            # runs stay byte-identical.
            fault = (self._link_faults.get(src)
                     or self._link_faults.get(dst))
            if fault is not None:
                if fault.loss and fault.rng.random() < fault.loss:
                    fault.dropped += 1
                    self.messages_failed += 1
                    yield sim.timeout(self.spec.unreachable_timeout_s)
                    raise FlakyLinkError(
                        f"packet {src} -> {dst} dropped (flaky NIC)",
                        node=dst)
                if fault.jitter_s:
                    fault.jittered += 1
                    yield sim.timeout(fault.rng.random() * fault.jitter_s)
        wire = self.spec.wire_time(nbytes)
        # The two NIC holds are spawned although they are serial: joined
        # in place they claim the queue earlier within their instant,
        # which reorders same-instant arrivals at a NIC and moved
        # simulated statistics further than a tie may (DESIGN § 4b).
        yield sim.process(self._egress[src].use(wire))
        timeout = sim._timeout_pooled(self.spec.latency_s)
        yield timeout
        sim._recycle_timeout(timeout)
        yield sim.process(self._ingress[dst].use(wire))

    def rpc(self, src: "str | Node", dst: "str | Node", request_bytes: int,
            response_bytes: int, handler):
        """A synchronous request/response exchange, run by the caller.

        ``handler`` is a generator (the server-side work, executed on the
        destination); its return value becomes the RPC's return value.
        This is the building block for every store's client/server hop.
        Request transfer, handler and response transfer are serial, so
        all three run in the calling process (``yield from``); spawn the
        whole exchange to overlap several (replica fan-out).
        """
        src_name = src if isinstance(src, str) else src.name
        dst_name = dst if isinstance(dst, str) else dst.name
        yield from self.transfer(src_name, dst_name, request_bytes)
        result = yield from handler
        yield from self.transfer(dst_name, src_name, response_bytes)
        return result
