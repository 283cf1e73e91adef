"""repro — reproduction of Rabl et al., "Solving Big Data Challenges for
Enterprise Application Performance Management" (VLDB 2012).

The package provides three layers:

* :mod:`repro.sim` — a discrete-event cluster simulator (nodes, CPUs,
  disks, page caches, a switched gigabit network) standing in for the
  paper's physical clusters M and D.
* :mod:`repro.storage` and :mod:`repro.stores` — functional Python
  implementations of the six benchmarked store architectures (Cassandra,
  HBase, Project Voldemort, Redis, VoltDB, sharded MySQL) and the storage
  engines underneath them (LSM trees, B+trees, in-memory hashes).
* :mod:`repro.ycsb` and :mod:`repro.core` — a YCSB-style benchmark
  framework with the paper's five workloads (Table 1) plus the APM
  domain layer (metric records, agents, monitoring queries, capacity
  planning).

Quickstart::

    from repro import run_benchmark
    from repro.ycsb.workload import WORKLOAD_R

    result = run_benchmark("cassandra", WORKLOAD_R, n_nodes=4)
    print(result.throughput_ops, result.read_latency.mean)
"""

__version__ = "1.8.0"

__all__ = ["BenchmarkResult", "run_benchmark", "__version__"]


def __getattr__(name):
    """Lazily expose the top-level convenience API.

    Importing :mod:`repro.ycsb` eagerly would force every subpackage to load
    whenever any of them is used; the lazy hook keeps ``import repro.sim``
    lightweight while still supporting ``from repro import run_benchmark``.
    """
    if name in ("run_benchmark", "BenchmarkResult"):
        from repro.ycsb import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
