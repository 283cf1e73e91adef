"""Programmatic parameter sweeps.

For studies beyond the paper's fixed figures: a :class:`SweepSpec` names
a product of (store, workload, node count) at one scale and expands
itself into benchmark configs; :func:`run_sweep` runs them as one batch
through :func:`repro.orchestrator.pool.execute_grid` — in parallel with
``jobs``, persisted and resumable with ``store`` — and collects a tidy
:class:`SweepResult`, ready for export or tabulation.  ``apmbench grid``
and ``examples/scaling_study.py`` are this module and nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Optional

from repro.analysis.provenance import stamp
from repro.orchestrator.plan import derive_seed
from repro.orchestrator.pool import execute_grid
from repro.orchestrator.store import ResultStore
from repro.sim.cluster import CLUSTER_M, ClusterSpec
from repro.stores.registry import store_class
from repro.ycsb.runner import BenchmarkConfig, BenchmarkResult
from repro.ycsb.workload import Workload

__all__ = ["SweepSpec", "SweepResult", "run_sweep"]


@dataclass(frozen=True)
class SweepSpec:
    """The cartesian product of configurations to run."""

    stores: tuple[str, ...]
    workloads: tuple[Workload, ...]
    node_counts: tuple[int, ...]
    cluster_spec: ClusterSpec = CLUSTER_M
    records_per_node: int = 10_000
    measured_ops: int = 3000
    warmup_ops: int = 400
    seed: int = 42
    store_kwargs: dict = field(default_factory=dict)

    def points(self) -> Iterable[tuple[str, Workload, int]]:
        """All (store, workload, nodes) combinations, in order."""
        return product(self.stores, self.workloads, self.node_counts)

    def __len__(self) -> int:
        return (len(self.stores) * len(self.workloads)
                * len(self.node_counts))

    def configs(self, derive_seeds: bool = False,
                ) -> tuple[list[BenchmarkConfig], list[tuple[str, str]]]:
        """The benchmark configs behind the product, and what it skips.

        A scan workload on a store without scan support (Voldemort) is
        returned as a ``(store, reason)`` skip instead of a config, so
        full-product sweeps stay convenient; anything else that is wrong
        with a point (an unknown store, a record count of zero) raises.
        With ``derive_seeds`` each point gets an independent
        :func:`~repro.orchestrator.plan.derive_seed` seed instead of the
        spec-wide one.
        """
        configs: list[BenchmarkConfig] = []
        skipped: list[tuple[str, str]] = []
        for store_name, workload, nodes in self.points():
            # Looked up for every point, so an unknown store raises here,
            # before any point has run.
            store = store_class(store_name)
            if workload.has_scans and not store.supports_scans:
                skipped.append(
                    (store_name,
                     f"does not support scans (workload {workload.name})"))
                continue
            seed = self.seed
            if derive_seeds:
                seed = derive_seed(
                    self.seed, f"{store_name}/{workload.name}/{nodes}")
            configs.append(BenchmarkConfig(
                store=store_name, workload=workload, n_nodes=nodes,
                cluster_spec=self.cluster_spec,
                records_per_node=self.records_per_node,
                measured_ops=self.measured_ops,
                warmup_ops=self.warmup_ops,
                seed=seed,
                store_kwargs=dict(self.store_kwargs),
            ))
        return configs, skipped


@dataclass
class SweepResult:
    """Collected results plus tabulation helpers."""

    spec: SweepSpec
    results: list[BenchmarkResult]
    #: ``(store, reason)`` for every point the spec could not run.
    skipped: list[tuple[str, str]]

    def rows(self) -> list[dict]:
        """One flat dict per completed point."""
        return [result.row() for result in self.results]

    def best_by(self, workload_name: str,
                n_nodes: int) -> Optional[BenchmarkResult]:
        """The highest-throughput store for one (workload, scale) cell."""
        candidates = [
            r for r in self.results
            if r.config.workload.name == workload_name
            and r.config.n_nodes == n_nodes
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda r: r.throughput_ops)

    def to_dict(self) -> dict:
        """The sweep as a JSON-ready payload with a ``provenance`` stamp.

        The stamp hashes the full :class:`SweepSpec` (including its
        seed), so an exported sweep names the exact configuration
        product that produced it.  This is the ``apmbench grid
        --export`` document.
        """
        payload = {
            "rows": self.rows(),
            "skipped": [{"store": store, "reason": reason}
                        for store, reason in self.skipped],
        }
        return stamp(payload, self.spec)

    def series(self, store: str,
               workload_name: str) -> list[tuple[int, float]]:
        """(nodes, throughput) points for one store/workload pair."""
        out = []
        for result in self.results:
            if (result.config.store == store
                    and result.config.workload.name == workload_name):
                out.append((result.config.n_nodes,
                            result.throughput_ops))
        return sorted(out)


def run_sweep(spec: SweepSpec, jobs: int = 1,
              store: Optional[ResultStore] = None,
              progress: Optional[Callable] = None,
              derive_seeds: bool = False) -> SweepResult:
    """Run every point of ``spec`` as one ``execute_grid`` batch.

    ``jobs``, ``store`` and ``progress`` (called as ``progress(done,
    total, outcome)``) are :func:`~repro.orchestrator.pool.execute_grid`'s
    own; with a ``store``, points it already holds are not run again, in
    this call or a later one.  Results keep the order of
    :meth:`SweepSpec.points`.
    """
    configs, skipped = spec.configs(derive_seeds)
    outcomes = execute_grid(configs, jobs=jobs, store=store,
                            progress=progress)
    return SweepResult(spec, [outcome.result for outcome in outcomes],
                       skipped)
