"""Discrete-event cluster simulation substrate.

This package stands in for the physical test clusters of the paper
(Section 3): it provides an event-driven simulation kernel
(:mod:`repro.sim.kernel`), queueing resources (:mod:`repro.sim.resources`),
a switched gigabit network model (:mod:`repro.sim.network`), a disk and
page-cache model (:mod:`repro.sim.disk`), and node/cluster hardware profiles
(:mod:`repro.sim.cluster`) matching the paper's "Cluster M" (memory-bound)
and "Cluster D" (disk-bound) machines.

The kernel is deliberately SimPy-like: simulation actors are Python
generators that ``yield`` events (timeouts, resource requests, other
processes) and are resumed when those events fire.  All simulated time is in
seconds; all sizes are in bytes.
"""

from repro.sim.kernel import (
    AllOf,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.resources import Resource, ResourceStats
from repro.sim.network import Network, NetworkSpec
from repro.sim.disk import Disk, DiskSpec, PageCache
from repro.sim.cluster import (
    CLUSTER_D,
    CLUSTER_M,
    Cluster,
    ClusterSpec,
    Node,
    NodeSpec,
)

__all__ = [
    "AllOf",
    "CLUSTER_D",
    "CLUSTER_M",
    "Cluster",
    "ClusterSpec",
    "Disk",
    "DiskSpec",
    "Event",
    "Network",
    "NetworkSpec",
    "Node",
    "NodeSpec",
    "PageCache",
    "Process",
    "Resource",
    "ResourceStats",
    "SimulationError",
    "Simulator",
    "Timeout",
]
