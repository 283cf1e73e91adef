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
from typing import Callable, Iterable, Optional

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
    "expand_figure_ids",
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
# The three measured shapes (Figures 3-16, 18-20)
# ---------------------------------------------------------------------------

_D_WORKLOADS = (WORKLOAD_R, WORKLOAD_RW, WORKLOAD_W)


def _read(result, metric: str) -> float:
    """The one place a metric is read off a result: operations a second
    for ``throughput``, else that operation's mean latency in *seconds*
    (Figures 15/16 take their ratio in seconds; the quotient of the same
    two means in milliseconds differs in the last digit)."""
    if metric == "throughput":
        return result.throughput_ops
    return getattr(result, f"{metric}_latency").mean


def _plotted(result, metric: str) -> float:
    """:func:`_read` in the paper's units: latencies in milliseconds."""
    value = _read(result, metric)
    return value if metric == "throughput" else value * 1000


def _y_label(figure_id: str, metric: str) -> str:
    if metric != "throughput":
        return "Latency (ms)"
    # Figure 3 alone spells the unit out; the label is export bytes.
    return ("Throughput (Operations/sec)" if figure_id == "fig3"
            else "Throughput (Ops/sec)")


def _run(cache: ResultCache, profile: BenchProfile, store: str,
         workload: Workload, n_nodes: int, **overrides):
    """One point at the profile's size, ``overrides`` on top."""
    return cache.run(store, workload, n_nodes, **{
        "records_per_node": profile.records_per_node,
        "measured_ops": profile.measured_ops,
        "warmup_ops": profile.warmup_ops, "seed": profile.seed,
        **overrides})


def _sweep(cache: ResultCache, profile: BenchProfile, figure_id: str,
           title: str, workload: Workload, stores: tuple[str, ...],
           metric: str) -> FigureData:
    """One workload over the profile's cluster sizes (Figures 3-14)."""
    data = FigureData(figure_id, title, "Number of Nodes",
                      _y_label(figure_id, metric),
                      log_y=metric != "throughput")
    for store in stores:
        data.series[store] = [
            (float(n), _plotted(_run(cache, profile, store, workload, n),
                                metric))
            for n in profile.scales]
    return data


def _bounded(cache: ResultCache, profile: BenchProfile, figure_id: str,
             title: str, workload: Workload, stores: tuple[str, ...],
             metric: str) -> FigureData:
    """Latency at a fraction of the measured maximum, normalised to the
    latency at that maximum (Figures 15/16)."""
    data = FigureData(figure_id, title,
                      "Percentage of Maximum Throughput",
                      "Latency (Normalized)")
    n = profile.bounded_nodes
    if n not in profile.scales:
        n = max(s for s in profile.scales if s <= profile.bounded_nodes)
    for store in stores:
        unbounded = _run(cache, profile, store, workload, n)
        base_latency = _read(unbounded, metric)
        points = [(100.0, 100.0)]
        for level in profile.bounded_levels:
            result = _run(
                cache, profile, store, workload, n,
                target_throughput=unbounded.throughput_ops * level)
            normalized = (100.0 * _read(result, metric) / base_latency
                          if base_latency > 0 else 0.0)
            points.append((level * 100.0, normalized))
        data.series[store] = sorted(points)
    return data


def _cluster_d(cache: ResultCache, profile: BenchProfile, figure_id: str,
               title: str, workloads: tuple[Workload, ...],
               stores: tuple[str, ...], metric: str) -> FigureData:
    """One point a workload on the disk-bound cluster (Figures 18-20)."""
    data = FigureData(figure_id, title, "Workload",
                      _y_label(figure_id, metric), log_y=True)
    for store in stores:
        data.series[store] = [
            (float(i), _plotted(_run(
                cache, profile, store, workload, profile.cluster_d_nodes,
                cluster_spec=CLUSTER_D,
                records_per_node=profile.cluster_d_records,
                paper_records_per_node=profile.cluster_d_paper_records),
                metric))
            for i, workload in enumerate(workloads)]
    data.notes.append("x axis: 0=R, 1=RW, 2=W (8 nodes, Cluster D)")
    return data


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
# Registry
# ---------------------------------------------------------------------------

#: Every measured figure, once: id -> (shape, title, workload, stores,
#: metric).  A Cluster D row's workload is the three it plots.
_MEASURED = {
    "fig3": (_sweep, "Throughput for Workload R",
             WORKLOAD_R, STORE_NAMES, "throughput"),
    "fig4": (_sweep, "Read latency for Workload R",
             WORKLOAD_R, STORE_NAMES, "read"),
    "fig5": (_sweep, "Write latency for Workload R",
             WORKLOAD_R, STORE_NAMES, "write"),
    "fig6": (_sweep, "Throughput for Workload RW",
             WORKLOAD_RW, STORE_NAMES, "throughput"),
    "fig7": (_sweep, "Read latency for Workload RW",
             WORKLOAD_RW, STORE_NAMES, "read"),
    "fig8": (_sweep, "Write latency for Workload RW",
             WORKLOAD_RW, STORE_NAMES, "write"),
    "fig9": (_sweep, "Throughput for Workload W",
             WORKLOAD_W, STORE_NAMES, "throughput"),
    "fig10": (_sweep, "Read latency for Workload W",
              WORKLOAD_W, STORE_NAMES, "read"),
    "fig11": (_sweep, "Write latency for Workload W",
              WORKLOAD_W, STORE_NAMES, "write"),
    "fig12": (_sweep, "Throughput for Workload RS",
              WORKLOAD_RS, SCAN_STORES, "throughput"),
    "fig13": (_sweep, "Scan latency for Workload RS",
              WORKLOAD_RS, SCAN_STORES, "scan"),
    "fig14": (_sweep, "Throughput for Workload RSW",
              WORKLOAD_RSW, SCAN_STORES, "throughput"),
    "fig15": (_bounded, "Read latency for bounded throughput on Workload R",
              WORKLOAD_R, BOUNDED_STORES, "read"),
    "fig16": (_bounded, "Write latency for bounded throughput on Workload R",
              WORKLOAD_R, BOUNDED_STORES, "write"),
    "fig18": (_cluster_d, "Throughput for 8 nodes in Cluster D",
              _D_WORKLOADS, CLUSTER_D_STORES, "throughput"),
    "fig19": (_cluster_d, "Read latency for 8 nodes in Cluster D",
              _D_WORKLOADS, CLUSTER_D_STORES, "read"),
    "fig20": (_cluster_d, "Write latency for 8 nodes in Cluster D",
              _D_WORKLOADS, CLUSTER_D_STORES, "write"),
}


def _measured(figure_id: str) -> Callable:
    shape, *row = _MEASURED[figure_id]

    def builder(cache: ResultCache, profile: BenchProfile) -> FigureData:
        return shape(cache, profile, figure_id, *row)
    return builder


#: Every artefact in the paper's order; the two model-only ones (Table 1,
#: Figure 17) are their own functions.
FIGURES: dict[str, Callable[[ResultCache, BenchProfile], FigureData]] = {
    "table1": table1,
    **{f"fig{i}": fig17 if i == 17 else _measured(f"fig{i}")
       for i in range(3, 21)},
}


def expand_figure_ids(figures: str | Iterable[str]) -> list[str]:
    """``"all"``, a comma list, or an iterable of ids -> validated list."""
    if isinstance(figures, str):
        if figures == "all":
            return list(FIGURES)
        figures = [f.strip() for f in figures.split(",") if f.strip()]
    ids = list(figures)
    unknown = [f for f in ids if f not in FIGURES]
    if unknown:
        known = ", ".join(FIGURES)
        raise ValueError(
            f"unknown figure(s) {', '.join(unknown)}; known: {known}")
    return ids
