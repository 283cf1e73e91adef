"""Benchmark result memoisation.

The paper derives three figures (throughput, read latency, write
latency) from every workload sweep; re-running the sweep per figure
would triple the cost.  :class:`ResultCache` keys runs by their full
configuration and hands back the :class:`BenchmarkResult` it was given.

It is a memo and nothing else: it is handed a *runner* and never a
result store.  Persistence and batches belong to
:func:`repro.orchestrator.pool.execute_grid`; a memo that should see
stored points is given a runner that reads or get-or-runs them there.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.cluster import ClusterSpec
from repro.ycsb.runner import BenchmarkConfig, BenchmarkResult
from repro.ycsb.workload import Workload

__all__ = ["ResultCache"]


class ResultCache:
    """Memoises ``runner(config)`` by ``config.content_key()``.

    :meth:`BenchmarkConfig.to_dict` is the single source of config
    identity, shared with :meth:`BenchmarkConfig.content_hash` (the
    on-disk store address), so memo and store agree on what "the same
    point" means.  There is no default runner: whoever makes a memo says
    where its points come from.
    """

    def __init__(self, runner: Callable[..., BenchmarkResult]):
        self._runner = runner
        self._results: dict[str, BenchmarkResult] = {}
        self.hits = 0
        self.misses = 0

    def get(self, config: BenchmarkConfig) -> BenchmarkResult:
        """The result for ``config``, calling the runner on a miss."""
        key = config.content_key()
        if key in self._results:
            self.hits += 1
            return self._results[key]
        self.misses += 1
        result = self._runner(config)
        self._results[key] = result
        return result

    def run(self, store: str, workload: Workload, n_nodes: int,
            cluster_spec: Optional[ClusterSpec] = None,
            **overrides) -> BenchmarkResult:
        """Convenience wrapper building the config inline."""
        kwargs = dict(overrides)
        if cluster_spec is not None:
            kwargs["cluster_spec"] = cluster_spec
        config = BenchmarkConfig(store=store, workload=workload,
                                 n_nodes=n_nodes, **kwargs)
        return self.get(config)

    def clear(self) -> None:
        """Forget every memoised result."""
        self._results.clear()
