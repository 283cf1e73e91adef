"""The one module of ``bench_e2e`` that names anything inside ``repro``.

Everything the benchmark drives or wraps is listed here, so a refactor of
the program (ROADMAP item 3) has one place to look.  The names in the
``import`` block are required: without them no point can run and the
import fails.  The wrap targets of the traced run are optional: one that
is missing is skipped with a warning and its metrics are reported absent.
"""

from __future__ import annotations

import importlib
import sys
import warnings
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
_SRC = ROOT / "src"

if not (_SRC / "repro").is_dir():
    raise ImportError(f"bench_e2e measures the program under {_SRC}, "
                      "which does not exist")
if str(_SRC) not in sys.path:
    # The checkout's own source wins over any installed copy.
    sys.path.insert(0, str(_SRC))

from repro.orchestrator import (ResultStore, derive_seed,  # noqa: E402
                                execute_grid, result_to_dict)
from repro.sim.cluster import CLUSTER_D, CLUSTER_M  # noqa: E402
from repro.sim.kernel import Simulator  # noqa: E402
from repro.stores.registry import store_class  # noqa: E402
from repro.ycsb.runner import BenchmarkConfig  # noqa: E402
from repro.ycsb.workload import WORKLOADS  # noqa: E402

__all__ = ["ROOT", "BenchmarkConfig", "CLUSTER_D", "CLUSTER_M", "ResultStore",
           "Simulator", "WORKLOADS", "derive_seed", "execute_grid",
           "cluster_counters", "engine_counters", "kernel_events",
           "modules_binding", "result_facts", "result_to_dict",
           "store_class", "trace_targets"]

#: ``(label, module, dotted attribute)`` of every wrap target that does
#: not depend on which store a point deploys.  The label names the layer
#: metric the wrapper feeds (see ``trace.py``).
_TARGETS = (
    ("generator", "repro.ycsb.generator", "generate_record"),
    ("deploy.cluster", "repro.sim.cluster", "Cluster.__init__"),
    ("lsm.new", "repro.storage.lsm.engine", "LSMEngine.__init__"),
    ("lsm.put", "repro.storage.lsm.engine", "LSMEngine.put"),
    ("lsm.get", "repro.storage.lsm.engine", "LSMEngine.get"),
    ("lsm.scan", "repro.storage.lsm.engine", "LSMEngine.scan"),
    ("lsm.flush", "repro.storage.lsm.engine", "LSMEngine.flush"),
    ("lsm.compact", "repro.storage.lsm.engine", "LSMEngine.maybe_compact"),
    ("btree.put", "repro.storage.btree", "BPlusTree.put"),
    ("btree.get", "repro.storage.btree", "BPlusTree.get"),
    ("btree.scan", "repro.storage.btree", "BPlusTree.scan"),
    ("hashstore.set", "repro.storage.hashstore", "HashStore.hset"),
    ("hashstore.get", "repro.storage.hashstore", "HashStore.hgetall"),
    ("hdfs.read", "repro.stores.hdfs", "Hdfs.read"),
    ("hdfs.append", "repro.stores.hdfs", "Hdfs.append"),
    ("sim_run", "repro.sim.kernel", "Simulator.run"),
    ("serialize", "repro.orchestrator.serialize", "result_to_dict"),
    ("resultstore.put", "repro.orchestrator.store", "ResultStore.put"),
)

#: Per-store wrap targets: ``(label, method of the store class)``.
_STORE_TARGETS = (
    ("deploy.store", "__init__"),
    ("load", "load"),
    ("warm", "warm_caches"),
)


def _missing(label: str, what: str) -> None:
    warnings.warn(f"bench_e2e: wrap target {what} not found; "
                  f"{label} metrics will be absent", stacklevel=3)


def trace_targets(stores: list[str]) -> Iterator[tuple[str, object, str]]:
    """``(label, owner, attribute)`` for every wrap target that exists.

    ``owner`` is the class or module holding ``attribute``.
    """
    for label, module_name, dotted in _TARGETS:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            _missing(label, module_name)
            continue
        *path, attribute = dotted.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, attribute):
            _missing(label, f"{module_name}.{dotted}")
            continue
        yield label, owner, attribute
    for store in stores:
        cls = store_class(store)
        for label, attribute in _STORE_TARGETS:
            if hasattr(cls, attribute):
                yield label, cls, attribute
            else:
                _missing(label, f"{cls.__name__}.{attribute}")


def modules_binding(function) -> list[tuple[object, str]]:
    """``(module, global name)`` wherever ``repro`` binds ``function``.

    ``from x import f`` copies the binding, so wrapping a module-level
    function means replacing it wherever it was imported to.
    """
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "repro":
            continue
        for attribute, value in list(vars(module).items()):
            if value is function:
                found.append((module, attribute))
    return found


# -- reading what the program already counts ----------------------------------


def result_facts(result) -> dict:
    """What one point's result says: client totals and simulated statistics.

    Simulated, so exact: the same seed gives the same values on every run
    of one commit, and on two commits unless goldens were regenerated.
    """
    stats = result.stats
    return {
        "client.ops": stats.operations,
        "client.errors": stats.errors + result.store_errors,
        "simstat.throughput_ops": result.throughput_ops,
        "simstat.read_p99_ms": result.read_latency.percentile(99) * 1e3,
        "simstat.write_p99_ms": result.write_latency.percentile(99) * 1e3,
        "simstat.scan_p99_ms": result.scan_latency.percentile(99) * 1e3,
        "simstat.sim_seconds": stats.finished_at,
    }


def kernel_events(sim):
    """Events the kernel ever scheduled, or ``None`` if it no longer says.

    ``benchmarks/bench_kernel.py`` reads the same counter.
    """
    return getattr(sim, "_sequence", None)


def _counters(read):
    """Make a counter reader answer ``{}`` (absent) when the program's
    objects lost an attribute it reads, instead of stopping the run."""
    def tolerant(*args) -> dict:
        try:
            return read(*args)
        except AttributeError as error:
            warnings.warn(f"bench_e2e: {read.__name__} cannot read the "
                          f"program's counters ({error}); metrics absent",
                          stacklevel=2)
            return {}
    return tolerant


@_counters
def engine_counters(engines) -> dict:
    """Sums of the counters the LSM engines keep."""
    return {
        "lsm.flushes": sum(e.flushes for e in engines),
        "lsm.compactions": sum(e.compaction.compactions_run for e in engines),
        "lsm.sstables_probed": sum(e.sstables_probed for e in engines),
    }


@_counters
def cluster_counters(cluster) -> dict:
    """Sums of the counters the hardware models of one cluster keep."""
    nodes = cluster.servers + cluster.clients
    network = cluster.network
    queues = [queue for node in nodes
              for queue in (node.cpus, node.disk.queue,
                            network.egress_queue(node.name),
                            network.ingress_queue(node.name))]
    disks = [node.disk for node in nodes]
    caches = [node.page_cache for node in nodes]
    return {
        "resources.requests": sum(q.stats.requests for q in queues),
        "resources.wait_sim_s": sum(q.stats.total_wait_time for q in queues),
        "network.messages": network.messages_sent,
        "network.bytes": network.bytes_sent,
        "disk.reads": sum(d.reads for d in disks),
        "disk.writes": sum(d.writes for d in disks),
        "disk.bytes_read": sum(d.bytes_read for d in disks),
        "disk.bytes_written": sum(d.bytes_written for d in disks),
        "pagecache.hits": sum(c.hits for c in caches),
        "pagecache.misses": sum(c.misses for c in caches),
    }
