"""The four workloads: which data points each runs, and why.

The issue measured these points at 30-45 s a pass; the sizes here are
smaller so that several passes fit one run under the driver's time cap,
and were chosen so that each workload keeps the phase shares it was
picked for (see README.md).  The stores' minimum measurement windows
(8 ops per connection, 72 for HBase) put a floor under ``measured_ops``.
"""

from __future__ import annotations

from dataclasses import dataclass

from bench_e2e import api

__all__ = ["Point", "WORKLOADS", "Workload"]

N_NODES = 4


@dataclass(frozen=True)
class Point:
    """One data point of a workload, at ``--scale 1``."""

    store: str
    mix: str
    records_per_node: int
    measured_ops: int
    cluster: str = "M"

    @property
    def name(self) -> str:
        suffix = "" if self.cluster == "M" else f"@{self.cluster}"
        return f"{self.store}/{self.mix}{suffix}"

    def config(self, workload: str, seed: int, scale: float):
        """The program's config for this point; only generated inputs."""
        spec = api.CLUSTER_M if self.cluster == "M" else api.CLUSTER_D
        return api.BenchmarkConfig(
            store=self.store,
            workload=api.WORKLOADS[self.mix],
            n_nodes=N_NODES,
            cluster_spec=spec,
            records_per_node=max(1, round(self.records_per_node * scale)),
            measured_ops=max(1, round(self.measured_ops * scale)),
            seed=api.derive_seed(seed, f"{workload}/{self.name}"),
        )

    def warm_up_config(self):
        """A throw-away run of the same code paths, small enough to be
        free: it pays imports and first-call costs before timing starts.
        One Cluster D node has the fewest connections, and the stores'
        minimum windows grow with the connection count."""
        return api.BenchmarkConfig(
            store=self.store, workload=api.WORKLOADS[self.mix], n_nodes=1,
            cluster_spec=api.CLUSTER_D, records_per_node=500,
            measured_ops=200, warmup_ops=50, seed=1)


@dataclass(frozen=True)
class Workload:
    """A named set of points; why each was chosen is recorded once, in
    ``BENCHMARK.json``, and at length in ``README.md``."""

    name: str
    points: tuple[Point, ...]

    @property
    def stores(self) -> list[str]:
        return sorted({point.store for point in self.points})


_WORKLOADS = (
    Workload(
        "load-bound",
        tuple(Point(store, "R", 14_000, 600)
              for store in ("cassandra", "mysql", "redis", "voldemort")),
    ),
    Workload(
        "sim-bound",
        (Point("cassandra", "RW", 1_000, 8_000),
         Point("voldemort", "RW", 1_000, 8_000),
         Point("voltdb", "R", 1_000, 8_000),
         Point("mysql", "RSW", 1_000, 8_000),
         Point("cassandra", "R", 2_000, 4_000, cluster="D")),
    ),
    Workload(
        "hbase-read",
        (Point("hbase", "R", 40_000, 58_000),),
    ),
    Workload(
        "write-churn",
        (Point("cassandra", "W", 1_500, 7_500),
         Point("hbase", "W", 1_500, 37_000),
         Point("mysql", "W", 1_500, 7_500),
         Point("voldemort", "W", 1_500, 7_500)),
    ),
)

WORKLOADS = {workload.name: workload for workload in _WORKLOADS}
