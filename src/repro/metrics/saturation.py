"""Resource-saturation analysis: which resource binds the throughput.

The paper's explanations all reduce to naming the saturated resource —
Cluster M is memory/CPU-bound because the working set fits in RAM,
Cluster D is disk-bound because it does not.  :func:`analyze_saturation`
reads the sampled per-node channels written by
:func:`repro.metrics.instrument.instrument_cluster`, computes mean
utilisation per resource over the measurement window, and names the
binding resource with a one-line narrative verdict.

Utilisation definitions (all over the window ``[t0, t1]``):

* **cpu** — busy-slot-seconds / (window x cores): mean multi-core load;
* **disk** — disk busy-seconds / window: fraction of time the disk served;
* **network** — the busier of the node's NIC directions / window;
* **executor** — the store's serialisation point (Redis's single-threaded
  event loop, VoltDB's partition sites, HBase's RPC handler pool),
  present only when the store registers ``store_executor_slot_seconds``
  channels.  This is what lets the analyzer see a store that saturates
  *before* any hardware resource does.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from repro.metrics.instrument import node_channel
from repro.metrics.timeseries import WindowedSeries
from repro.sim.cluster import Cluster

__all__ = ["NodeUtilization", "ResourceUtilization", "SaturationReport",
           "SaturationVerdict", "analyze_saturation"]

#: Resources that can be named as the bottleneck, in tie-break order.
RESOURCES = ("cpu", "disk", "network", "executor")

#: Mean utilisation above which a resource counts as saturated.
SATURATION_THRESHOLD = 0.8


@dataclass(frozen=True)
class NodeUtilization:
    """Mean utilisations of one server node over the window."""

    node: str
    cpu: float
    disk: float
    network: float
    #: Store serialisation-point utilisation (None when not registered).
    executor: Optional[float]
    #: Page-cache hit fraction in the window (None when no lookups).
    cache_hit_rate: Optional[float]
    #: Server-side operations applied on this node in the window.
    ops: float

    def get(self, resource: str) -> float:
        """Utilisation of ``resource`` (one of :data:`RESOURCES`)."""
        value = getattr(self, resource)
        return 0.0 if value is None else value


@dataclass(frozen=True)
class ResourceUtilization:
    """Cluster-level view of one resource over the window."""

    resource: str
    mean: float
    peak: float
    peak_node: str


@dataclass(frozen=True)
class SaturationVerdict:
    """The analyzer's conclusion, machine-readable.

    One stable record shared by every consumer — the autoscaling
    controller, ``apmbench run --metrics`` and the exported payloads —
    instead of each parsing the narrative text.
    """

    #: The binding resource (one of :data:`RESOURCES`).
    bottleneck: str
    #: Mean utilisation of the binding resource across servers, in [0, 1]
    #: — the controller's pressure signal.
    pressure: float
    #: Highest single-node utilisation of the binding resource.
    peak: float
    #: The node carrying that peak.
    peak_node: str
    #: Whether the binding resource crossed :data:`SATURATION_THRESHOLD`.
    saturated: bool
    #: The paper-flavoured one-line explanation.
    narrative: str

    def to_dict(self) -> dict:
        """A JSON-ready projection (stable key order via sort_keys)."""
        return asdict(self)


@dataclass(frozen=True)
class SaturationReport:
    """Per-node utilisation plus the named binding resource."""

    t0: float
    t1: float
    nodes: tuple[NodeUtilization, ...]
    resources: tuple[ResourceUtilization, ...]
    bottleneck: str
    verdict: str

    def resource(self, name: str) -> ResourceUtilization:
        """The cluster-level summary for resource ``name``."""
        for summary in self.resources:
            if summary.resource == name:
                return summary
        raise KeyError(name)

    @property
    def saturated(self) -> bool:
        """Whether the bottleneck resource is actually saturated."""
        return self.resource(self.bottleneck).mean >= SATURATION_THRESHOLD

    @property
    def summary(self) -> SaturationVerdict:
        """The machine-readable verdict for this window."""
        binding = self.resource(self.bottleneck)
        return SaturationVerdict(
            bottleneck=self.bottleneck,
            pressure=binding.mean,
            peak=binding.peak,
            peak_node=binding.peak_node,
            saturated=self.saturated,
            narrative=self.verdict,
        )

    def render(self) -> str:
        """The per-node utilisation table plus the bottleneck verdict."""
        with_exec = any(n.executor is not None for n in self.nodes)
        exec_header = f"{'exec%':>8}" if with_exec else ""
        lines = [
            f"resource utilisation over [{self.t0:.3f}s, {self.t1:.3f}s]",
            f"{'node':<14}{'cpu%':>8}{'disk%':>8}{'net%':>8}{exec_header}"
            f"{'cache-hit%':>12}{'ops/s':>12}",
        ]
        span = self.t1 - self.t0
        for node in self.nodes:
            hit = (f"{100.0 * node.cache_hit_rate:10.1f}"
                   if node.cache_hit_rate is not None else f"{'-':>10}")
            rate = node.ops / span if span > 0 else 0.0
            exec_cell = ""
            if with_exec:
                exec_cell = (f"{100.0 * node.executor:8.1f}"
                             if node.executor is not None else f"{'-':>8}")
            lines.append(
                f"{node.node:<14}{100.0 * node.cpu:8.1f}"
                f"{100.0 * node.disk:8.1f}{100.0 * node.network:8.1f}"
                f"{exec_cell}{hit:>12}{rate:12.1f}"
            )
        lines.append(f"bottleneck: {self.verdict}")
        return "\n".join(lines)

    def to_payload(self) -> dict:
        """A JSON-ready dict of the report."""
        return {
            "window": {"t0": self.t0, "t1": self.t1},
            "nodes": [asdict(n) for n in self.nodes],
            "resources": [asdict(r) for r in self.resources],
            "bottleneck": self.bottleneck,
            "saturated": self.saturated,
            "verdict": self.verdict,
            "summary": self.summary.to_dict(),
        }


def _clamp(value: float) -> float:
    return max(0.0, min(1.0, value))


def analyze_saturation(series: WindowedSeries, cluster: Cluster,
                       t0: float, t1: float,
                       store_name: Optional[str] = None) -> SaturationReport:
    """Name the binding resource over ``[t0, t1]`` from sampled channels.

    ``store_name`` selects the per-node op-count channels registered by
    the store's ``attach_metrics``; without it, op rates report as 0.
    """
    span = t1 - t0
    if span <= 0:
        raise ValueError(f"empty measurement window: [{t0}, {t1}]")

    nodes = []
    for node in cluster.servers:
        if node.retired:
            # Scaled-in nodes are powered off: their frozen meters would
            # only dilute the cluster means the controller acts on.
            continue
        name, role = node.name, node.role

        def total(metric: str) -> float:
            return series.sum_between(node_channel(metric, name, role),
                                      t0, t1)

        cpu = _clamp(total("node_cpu_slot_seconds")
                     / (span * node.spec.cores))
        disk = _clamp(total("node_disk_busy_seconds") / span)
        nic = _clamp(max(total("node_nic_out_busy_seconds"),
                         total("node_nic_in_busy_seconds")) / span)
        hits = total("node_cache_hits")
        misses = total("node_cache_misses")
        lookups = hits + misses
        hit_rate = hits / lookups if lookups > 0 else None
        ops = 0.0
        executor = None
        if store_name is not None:
            ops = series.sum_between(
                f'store_node_ops{{node="{name}",store="{store_name}"}}',
                t0, t1)
            exec_busy = series.sum_between(
                f'store_executor_slot_seconds'
                f'{{node="{name}",store="{store_name}"}}', t0, t1)
            slots = series.mean_between(
                f'store_executor_slots'
                f'{{node="{name}",store="{store_name}"}}', t0, t1)
            if slots > 0:
                executor = _clamp(exec_busy / (span * slots))
        nodes.append(NodeUtilization(node=name, cpu=cpu, disk=disk,
                                     network=nic, executor=executor,
                                     cache_hit_rate=hit_rate, ops=ops))

    with_exec = any(n.executor is not None for n in nodes)
    resources = []
    for resource in RESOURCES:
        if resource == "executor" and not with_exec:
            continue
        values = [(n.get(resource), n.node) for n in nodes]
        mean = sum(v for v, __ in values) / len(values) if values else 0.0
        peak, peak_node = max(values) if values else (0.0, "")
        resources.append(ResourceUtilization(resource=resource, mean=mean,
                                             peak=peak, peak_node=peak_node))

    # Highest mean wins; max() keeps the first of equals, so ties break
    # toward the earlier entry in RESOURCES and the verdict is
    # deterministic.
    bottleneck = max(resources, key=lambda r: r.mean).resource
    verdict = _narrative(bottleneck, resources, nodes)
    return SaturationReport(t0=t0, t1=t1, nodes=tuple(nodes),
                            resources=tuple(resources),
                            bottleneck=bottleneck, verdict=verdict)


def _narrative(bottleneck: str, resources: list[ResourceUtilization],
               nodes: list[NodeUtilization]) -> str:
    """The paper-flavoured one-liner naming the binding resource."""
    mean = next(r.mean for r in resources if r.resource == bottleneck)
    rated = [n.cache_hit_rate for n in nodes if n.cache_hit_rate is not None]
    hit_rate = sum(rated) / len(rated) if rated else None
    head = (f"{bottleneck} (mean {100.0 * mean:.1f}% across "
            f"{len(nodes)} servers)")
    if bottleneck == "executor":
        return (f"{head} — store-bound: the store's serialisation point "
                f"(event loop / handler pool / partition sites) binds "
                f"before the hardware")
    if mean < 0.5:
        return (f"{head} — nothing saturated: throughput is bound "
                f"elsewhere (client count, serialisation, or the offered "
                f"load)")
    if bottleneck == "disk":
        if hit_rate is not None and hit_rate < 0.9:
            return (f"{head} — disk-bound: page-cache hit rate "
                    f"{100.0 * hit_rate:.1f}%, the working set spills to "
                    f"disk (Cluster D pattern)")
        return f"{head} — disk-bound (Cluster D pattern)"
    if bottleneck == "cpu":
        if hit_rate is not None and hit_rate >= 0.9:
            return (f"{head} — memory/CPU-bound: page-cache hit rate "
                    f"{100.0 * hit_rate:.1f}%, the working set fits in "
                    f"RAM (Cluster M pattern)")
        return f"{head} — CPU-bound"
    return f"{head} — network-bound: the interconnect binds before " \
           f"CPU or disk"
