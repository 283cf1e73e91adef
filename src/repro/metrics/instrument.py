"""Cluster-wide instrumentation: wiring sim resources into a registry.

:func:`instrument_cluster` registers pull-based probes over the counters
the simulation components already maintain — CPU slot occupancy, disk
queue depth and busy time, NIC busy time, page-cache hits/misses and
network totals.  Because every metric here is a probe, nothing on the
simulation hot path changes when metrics are enabled: the cost is paid
only when the sampler wakes.

The channel names written here are the vocabulary the saturation
analyzer reads; :func:`node_channel` is the single naming helper both
sides share so they cannot drift apart.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.metrics.registry import MetricsRegistry
from repro.sim.cluster import Cluster, Node

__all__ = ["instrument_cluster", "instrument_node", "node_channel",
           "register_lsm_engine"]


def node_channel(name: str, node: str, role: str) -> str:
    """The canonical channel string for a per-node metric.

    Must agree with :attr:`repro.metrics.registry.Metric.channel` for a
    metric registered with ``node=`` and ``role=`` labels (labels render
    sorted, so ``node`` precedes ``role``).
    """
    return f'{name}{{node="{node}",role="{role}"}}'


def register_lsm_engine(registry: MetricsRegistry,
                        engines: Callable[[], Iterable], **labels) -> None:
    """Probes summed over the LSM engines ``engines()`` names when read
    (Cassandra: the node's one engine; HBase: the server's *current*
    regions, so probes stay correct across master reassignments).

    Covers the engine-level quantities the paper's compaction narrative
    needs: memtable fill, SSTable count, compaction backlog, WAL fsync
    and flush counts.
    """
    def total(read):
        return lambda: sum(read(engine) for engine in engines())

    registry.probe("lsm_memtable_bytes",
                   total(lambda e: e.memtable.size_bytes), **labels)
    registry.probe("lsm_sstables",
                   total(lambda e: len(e.sstables)), **labels)
    registry.probe("lsm_compaction_backlog",
                   total(lambda e: e.compaction_backlog), **labels)
    registry.meter("lsm_wal_syncs_total",
                   total(lambda e: e.commit_log.syncs), **labels)
    registry.meter("lsm_flushes_total",
                   total(lambda e: e.flushes), **labels)


def instrument_cluster(registry: MetricsRegistry, cluster: Cluster) -> None:
    """Register probes for every node plus the shared switch."""
    for node in cluster.servers:
        instrument_node(registry, node)
    for node in cluster.clients:
        instrument_node(registry, node)
    net = cluster.network
    registry.meter("net_messages_total", lambda n=net: n.messages_sent)
    registry.meter("net_bytes_total", lambda n=net: n.bytes_sent)
    registry.meter("net_messages_failed_total",
                   lambda n=net: n.messages_failed)
    registry.meter("net_messages_expired_total",
                   lambda n=net: n.messages_expired)


def instrument_node(registry: MetricsRegistry, node: Node) -> None:
    """Register one node's hardware probes.

    Called per node by :func:`instrument_cluster` at setup, and by the
    control plane for servers provisioned mid-run.
    """
    labels = {"node": node.name, "role": node.role}
    cpus = node.cpus
    # CPU: the slot-seconds integral delta / (window * cores) is the mean
    # multi-core utilisation; busy_seconds tracks any-core-busy time.
    registry.meter("node_cpu_slot_seconds", cpus.slot_seconds, **labels)
    registry.meter("node_cpu_busy_seconds", cpus.busy_seconds, **labels)
    registry.probe("node_cpu_queue", lambda r=cpus: r.queue_length, **labels)
    # Overload accounting: admissions refused at a full queue and waits
    # abandoned because the request's deadline passed.
    registry.meter("node_cpu_rejected_total",
                   lambda r=cpus: r.stats.rejected, **labels)
    registry.meter("node_cpu_expired_total",
                   lambda r=cpus: r.stats.expired, **labels)

    disk = node.disk
    registry.meter("node_disk_busy_seconds", disk.queue.busy_seconds,
                   **labels)
    registry.probe("node_disk_queue",
                   lambda d=disk: d.queue.in_use + d.queue.queue_length,
                   **labels)
    registry.meter("node_disk_read_bytes", lambda d=disk: d.bytes_read,
                   **labels)
    registry.meter("node_disk_write_bytes", lambda d=disk: d.bytes_written,
                   **labels)
    registry.meter("node_disk_reads", lambda d=disk: d.reads, **labels)
    registry.meter("node_disk_writes", lambda d=disk: d.writes, **labels)

    net = node.network
    registry.meter("node_nic_out_busy_seconds",
                   net.egress_queue(node.name).busy_seconds, **labels)
    registry.meter("node_nic_in_busy_seconds",
                   net.ingress_queue(node.name).busy_seconds, **labels)

    cache = node.page_cache
    registry.meter("node_cache_hits", lambda c=cache: c.hits, **labels)
    registry.meter("node_cache_misses", lambda c=cache: c.misses, **labels)
