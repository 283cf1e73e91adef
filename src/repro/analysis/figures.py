"""Builders for every table and figure in the paper's evaluation.

Each builder regenerates one artefact (Table 1, Figures 3-20) on the
simulated substrate and returns a :class:`FigureData` carrying the same
series the paper plots.  Figures derived from the same sweep share runs
through :mod:`repro.analysis.cache`.

Two profiles control cost: ``quick`` (default; 3 cluster sizes, 20 K
records/node) and ``paper`` (the full 1-12 node sweep, 50 K records per
node).  Select with the ``REPRO_BENCH_PROFILE`` environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.sim.cluster import CLUSTER_D
from repro.storage.encoding import DISK_USAGE_MODELS
from repro.storage.record import APM_SCHEMA
from repro.stores.registry import STORE_NAMES, store_class
from repro.analysis.cache import ResultCache
from repro.ycsb.workload import (
    WORKLOADS,
    WORKLOAD_R,
    WORKLOAD_RS,
    WORKLOAD_RSW,
    WORKLOAD_RW,
    WORKLOAD_W,
    Workload,
)

__all__ = [
    "BenchProfile",
    "FigureData",
    "FIGURES",
    "active_profile",
    "build_figure",
    "profile_by_name",
]

#: Stores that can run scan workloads (the paper omits Voldemort there).
SCAN_STORES = tuple(s for s in STORE_NAMES if store_class(s).supports_scans)
#: Stores in the bounded-throughput experiment (Figures 15/16): the paper
#: omitted VoltDB "due to [its] prohibitive latency above 4 nodes".
BOUNDED_STORES = ("cassandra", "hbase", "voldemort", "mysql", "redis")
#: Disk-backed stores plotted in Figure 17.
DISK_STORES = ("cassandra", "hbase", "voldemort", "mysql")
#: Stores measured on the disk-bound cluster (Figures 18-20).
CLUSTER_D_STORES = ("cassandra", "hbase", "voldemort")


@dataclass(frozen=True)
class BenchProfile:
    """Cost/fidelity trade-off for figure regeneration."""

    name: str
    scales: tuple[int, ...]
    records_per_node: int
    cluster_d_nodes: int = 8
    cluster_d_records: int = 40_000
    #: Cluster D held 150 M records over the whole cluster (Section 3).
    cluster_d_paper_records: int = 150_000_000 // 8
    bounded_nodes: int = 8
    bounded_levels: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
    measured_ops: int = 6000
    warmup_ops: int = 800
    seed: int = 42


SMOKE_PROFILE = BenchProfile(
    name="smoke", scales=(1, 4), records_per_node=6_000,
    cluster_d_records=8_000, cluster_d_nodes=4, bounded_nodes=4,
    bounded_levels=(0.6,), measured_ops=1500, warmup_ops=300,
)
QUICK_PROFILE = BenchProfile(
    name="quick", scales=(1, 4, 8), records_per_node=12_000,
    cluster_d_records=25_000, bounded_nodes=4,
    bounded_levels=(0.5, 0.7, 0.9), measured_ops=4000,
)
PAPER_PROFILE = BenchProfile(
    name="paper", scales=(1, 2, 4, 8, 12), records_per_node=50_000,
    cluster_d_records=75_000,
)

_PROFILES = {"smoke": SMOKE_PROFILE, "quick": QUICK_PROFILE,
             "paper": PAPER_PROFILE}


def profile_by_name(name: str) -> BenchProfile:
    """The named cost/fidelity profile (``smoke``/``quick``/``paper``)."""
    try:
        return _PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(_PROFILES))
        raise ValueError(
            f"unknown profile {name!r}; expected one of {known}")


def active_profile() -> BenchProfile:
    """Profile selected by ``REPRO_BENCH_PROFILE`` (default: quick)."""
    return profile_by_name(os.environ.get("REPRO_BENCH_PROFILE", "quick"))


@dataclass
class FigureData:
    """One regenerated artefact: labelled series over an x axis."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    #: series name -> [(x, y), ...]
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    log_y: bool = False
    notes: list[str] = field(default_factory=list)

    def series_value(self, name: str, x: float) -> Optional[float]:
        """The y value of ``name`` at ``x``, or ``None``."""
        for px, py in self.series.get(name, []):
            if px == x:
                return py
        return None

    def max_x(self) -> float:
        """Largest x across all series."""
        return max(x for points in self.series.values() for x, __ in points)


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

def table1(cache: ResultCache, profile: BenchProfile) -> FigureData:
    """Table 1: the five workload mixes, nominal and as sampled."""
    data = FigureData("table1", "Workload specifications (Table 1)",
                      "workload", "%")
    import random
    for name, workload in WORKLOADS.items():
        data.series[f"{name}/read"] = [(0, workload.read_proportion * 100)]
        data.series[f"{name}/scan"] = [(0, workload.scan_proportion * 100)]
        data.series[f"{name}/insert"] = [
            (0, workload.insert_proportion * 100)]
        # empirical check: sample the op chooser
        rng = random.Random(profile.seed)
        table = workload.op_table()
        counts = {op: 0 for op, __ in table}
        n = 20_000
        for __ in range(n):
            roll = rng.random()
            for op, threshold in table:
                if roll <= threshold:
                    counts[op] += 1
                    break
        for op, count in counts.items():
            data.series[f"{name}/{op.value}/sampled"] = [
                (0, 100 * count / n)]
    return data


# ---------------------------------------------------------------------------
# Workload sweeps (Figures 3-14)
# ---------------------------------------------------------------------------

def _sweep(cache: ResultCache, profile: BenchProfile, workload: Workload,
           stores: tuple[str, ...], metric: str, figure_id: str,
           title: str, y_label: str, log_y: bool) -> FigureData:
    data = FigureData(figure_id, title, "Number of Nodes", y_label,
                      log_y=log_y)
    for store in stores:
        points = []
        for n in profile.scales:
            result = cache.run(
                store, workload, n,
                records_per_node=profile.records_per_node,
                measured_ops=profile.measured_ops,
                warmup_ops=profile.warmup_ops,
                seed=profile.seed,
            )
            if metric == "throughput":
                value = result.throughput_ops
            elif metric == "read":
                value = result.read_latency.mean * 1000
            elif metric == "write":
                value = result.write_latency.mean * 1000
            elif metric == "scan":
                value = result.scan_latency.mean * 1000
            else:  # pragma: no cover - internal misuse
                raise ValueError(f"unknown metric {metric!r}")
            points.append((float(n), value))
        data.series[store] = points
    return data


def _make_sweep_builder(workload: Workload, stores: tuple[str, ...],
                        metric: str, figure_id: str, title: str,
                        y_label: str, log_y: bool) -> Callable:
    def builder(cache: ResultCache, profile: BenchProfile) -> FigureData:
        return _sweep(cache, profile, workload, stores, metric, figure_id,
                      title, y_label, log_y)
    builder.__name__ = figure_id
    builder.__doc__ = f"{title} ({figure_id})."
    return builder


fig3 = _make_sweep_builder(WORKLOAD_R, STORE_NAMES, "throughput", "fig3",
                           "Throughput for Workload R",
                           "Throughput (Operations/sec)", False)
fig4 = _make_sweep_builder(WORKLOAD_R, STORE_NAMES, "read", "fig4",
                           "Read latency for Workload R",
                           "Latency (ms)", True)
fig5 = _make_sweep_builder(WORKLOAD_R, STORE_NAMES, "write", "fig5",
                           "Write latency for Workload R",
                           "Latency (ms)", True)
fig6 = _make_sweep_builder(WORKLOAD_RW, STORE_NAMES, "throughput", "fig6",
                           "Throughput for Workload RW",
                           "Throughput (Ops/sec)", False)
fig7 = _make_sweep_builder(WORKLOAD_RW, STORE_NAMES, "read", "fig7",
                           "Read latency for Workload RW",
                           "Latency (ms)", True)
fig8 = _make_sweep_builder(WORKLOAD_RW, STORE_NAMES, "write", "fig8",
                           "Write latency for Workload RW",
                           "Latency (ms)", True)
fig9 = _make_sweep_builder(WORKLOAD_W, STORE_NAMES, "throughput", "fig9",
                           "Throughput for Workload W",
                           "Throughput (Ops/sec)", False)
fig10 = _make_sweep_builder(WORKLOAD_W, STORE_NAMES, "read", "fig10",
                            "Read latency for Workload W",
                            "Latency (ms)", True)
fig11 = _make_sweep_builder(WORKLOAD_W, STORE_NAMES, "write", "fig11",
                            "Write latency for Workload W",
                            "Latency (ms)", True)
fig12 = _make_sweep_builder(WORKLOAD_RS, SCAN_STORES, "throughput", "fig12",
                            "Throughput for Workload RS",
                            "Throughput (Ops/sec)", False)
fig13 = _make_sweep_builder(WORKLOAD_RS, SCAN_STORES, "scan", "fig13",
                            "Scan latency for Workload RS",
                            "Latency (ms)", True)
fig14 = _make_sweep_builder(WORKLOAD_RSW, SCAN_STORES, "throughput",
                            "fig14", "Throughput for Workload RSW",
                            "Throughput (Ops/sec)", False)


# ---------------------------------------------------------------------------
# Bounded throughput (Figures 15/16)
# ---------------------------------------------------------------------------

def _bounded(cache: ResultCache, profile: BenchProfile,
             metric: str, figure_id: str, title: str) -> FigureData:
    data = FigureData(figure_id, title,
                      "Percentage of Maximum Throughput",
                      "Latency (Normalized)")
    n = profile.bounded_nodes
    if n not in profile.scales:
        n = max(s for s in profile.scales if s <= profile.bounded_nodes)
    for store in BOUNDED_STORES:
        max_result = cache.run(
            store, WORKLOAD_R, n,
            records_per_node=profile.records_per_node,
            measured_ops=profile.measured_ops,
            warmup_ops=profile.warmup_ops, seed=profile.seed,
        )
        max_throughput = max_result.throughput_ops
        histogram = (max_result.read_latency if metric == "read"
                     else max_result.write_latency)
        base_latency = histogram.mean
        points = [(100.0, 100.0)]
        for level in profile.bounded_levels:
            result = cache.run(
                store, WORKLOAD_R, n,
                records_per_node=profile.records_per_node,
                measured_ops=profile.measured_ops,
                warmup_ops=profile.warmup_ops, seed=profile.seed,
                target_throughput=max_throughput * level,
            )
            histogram = (result.read_latency if metric == "read"
                         else result.write_latency)
            normalized = (100.0 * histogram.mean / base_latency
                          if base_latency > 0 else 0.0)
            points.append((level * 100.0, normalized))
        data.series[store] = sorted(points)
    return data


def fig15(cache: ResultCache, profile: BenchProfile) -> FigureData:
    """Figure 15: read latency under bounded load, Workload R."""
    return _bounded(cache, profile, "read", "fig15",
                    "Read latency for bounded throughput on Workload R")


def fig16(cache: ResultCache, profile: BenchProfile) -> FigureData:
    """Figure 16: write latency under bounded load, Workload R."""
    return _bounded(cache, profile, "write", "fig16",
                    "Write latency for bounded throughput on Workload R")


# ---------------------------------------------------------------------------
# Disk usage (Figure 17)
# ---------------------------------------------------------------------------

def fig17(cache: ResultCache, profile: BenchProfile) -> FigureData:
    """Figure 17: disk usage for 10 M records/node, 1-12 nodes.

    Uses the byte-exact encoding models at the paper's full scale (the
    simulated loads validate the same encodings at reduced scale).
    """
    data = FigureData("fig17", "Disk usage for 10 million records",
                      "Number of Nodes", "Disk Usage (GB)")
    records_per_node = 10_000_000
    scales = (1, 2, 4, 6, 8, 10, 12)
    for store in DISK_STORES:
        model = DISK_USAGE_MODELS[store]
        per_node = model.node_bytes(records_per_node)
        data.series[store] = [
            (float(n), per_node * n / 2**30) for n in scales
        ]
    raw = APM_SCHEMA.raw_record_bytes * records_per_node
    data.series["raw data"] = [
        (float(n), raw * n / 2**30) for n in scales
    ]
    return data


# ---------------------------------------------------------------------------
# Cluster D (Figures 18-20)
# ---------------------------------------------------------------------------

_D_WORKLOADS = (WORKLOAD_R, WORKLOAD_RW, WORKLOAD_W)


def _cluster_d(cache: ResultCache, profile: BenchProfile, metric: str,
               figure_id: str, title: str) -> FigureData:
    data = FigureData(figure_id, title, "Workload",
                      "Throughput (Ops/sec)" if metric == "throughput"
                      else "Latency (ms)", log_y=True)
    for store in CLUSTER_D_STORES:
        points = []
        for i, workload in enumerate(_D_WORKLOADS):
            result = cache.run(
                store, workload, profile.cluster_d_nodes,
                cluster_spec=CLUSTER_D,
                records_per_node=profile.cluster_d_records,
                paper_records_per_node=profile.cluster_d_paper_records,
                measured_ops=profile.measured_ops,
                warmup_ops=profile.warmup_ops, seed=profile.seed,
            )
            if metric == "throughput":
                value = result.throughput_ops
            elif metric == "read":
                value = result.read_latency.mean * 1000
            else:
                value = result.write_latency.mean * 1000
            points.append((float(i), value))
        data.series[store] = points
    data.notes.append("x axis: 0=R, 1=RW, 2=W (8 nodes, Cluster D)")
    return data


def fig18(cache: ResultCache, profile: BenchProfile) -> FigureData:
    """Figure 18: throughput for 8 nodes in Cluster D."""
    return _cluster_d(cache, profile, "throughput", "fig18",
                      "Throughput for 8 nodes in Cluster D")


def fig19(cache: ResultCache, profile: BenchProfile) -> FigureData:
    """Figure 19: read latency for 8 nodes in Cluster D."""
    return _cluster_d(cache, profile, "read", "fig19",
                      "Read latency for 8 nodes in Cluster D")


def fig20(cache: ResultCache, profile: BenchProfile) -> FigureData:
    """Figure 20: write latency for 8 nodes in Cluster D."""
    return _cluster_d(cache, profile, "write", "fig20",
                      "Write latency for 8 nodes in Cluster D")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

FIGURES: dict[str, Callable[[ResultCache, BenchProfile], FigureData]] = {
    "table1": table1,
    "fig3": fig3, "fig4": fig4, "fig5": fig5,
    "fig6": fig6, "fig7": fig7, "fig8": fig8,
    "fig9": fig9, "fig10": fig10, "fig11": fig11,
    "fig12": fig12, "fig13": fig13, "fig14": fig14,
    "fig15": fig15, "fig16": fig16, "fig17": fig17,
    "fig18": fig18, "fig19": fig19, "fig20": fig20,
}


def build_figure(figure_id: str, cache: Optional[ResultCache] = None,
                 profile: Optional[BenchProfile] = None) -> FigureData:
    """Regenerate one artefact by id (``table1``, ``fig3`` ... ``fig20``).

    Without a ``cache`` every point runs live in a fresh memo; figures
    that share a sweep share it by being handed the same one.
    """
    try:
        builder = FIGURES[figure_id]
    except KeyError:
        known = ", ".join(FIGURES)
        raise ValueError(f"unknown figure {figure_id!r}; known: {known}")
    return builder(cache or ResultCache(), profile or active_profile())
