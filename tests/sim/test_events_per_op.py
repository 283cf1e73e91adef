"""Kernel events per client operation: pinned ceilings and their guard.

Host seconds for a data point are events per operation times
microseconds per event (ROADMAP item 2), and events per operation is a
property of how the request path is *written*: a serial callee that is
spawned and joined on the spot costs two kernel events and a ``Process``
more than one that is delegated to (DESIGN.md § 4b).  How the path is
written is held here without timing anything — ``sim._sequence`` and
the resume chains repeat exactly:

* ceilings on events per operation for a small workload-R point of each
  store, and for an HBase point loaded past 32 flush rounds so that the
  nine-store-file read fan-out (nine HDFS block probes a get) is inside
  the pin;
* ceilings on the deepest ``yield from`` chain a resume walks on the
  same small points — DESIGN § 4b's flattening rule, which events per
  operation cannot see;
* an ``ast`` walk over ``src/repro`` that fails on
  ``yield <x>.process(<generator call>)`` and
  ``yield <x>.detached(<generator call>)`` — spawn-then-immediately-join
  — outside an allow-list whose every entry says why it stays.  The
  walk knows these two spellings only: a process bound to a name and
  yielded later (``p = sim.process(gen()); ...; yield p``) is how real
  overlap is written too, and telling the two apart takes data flow, so
  that spelling is deliberately not covered and is left to review.
"""

import ast
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.sim.cluster import CLUSTER_M
from repro.sim.kernel import Process
from repro.ycsb.runner import BenchmarkConfig, run_config
from repro.ycsb.workload import WORKLOADS

SMALL_M = replace(CLUSTER_M, connections_per_node=4)

#: store -> (events per op now, at the parent commit v1.7.0), on
#: 2 nodes x 300 records, workload R.  The ceiling is the first number.
SMALL_R_CEILINGS = {
    "cassandra": (40, 58),
    "hbase": (38, 65),
    "voldemort": (29, 43),
    "redis": (28, 40),
    "voltdb": (31, 42),
    "mysql": (26, 38),
}

#: One HBase node, 160 000 records = 40 flush rounds, one compaction
#: merging 32 of them: every get probes the 9 store files left.  148
#: events per op at the parent commit (171 on ``bench_e2e``'s
#: ``hbase-read``, now 72).
HBASE_FAN_OUT_CEILING = 63


def _events_per_op(clusters, **config) -> float:
    config = BenchmarkConfig(workload=WORKLOADS["R"], cluster_spec=SMALL_M,
                             seed=16, **config)
    result = run_config(config)
    assert result.stats.errors == 0
    return clusters[-1].sim._sequence / result.stats.operations


@pytest.mark.parametrize("store", sorted(SMALL_R_CEILINGS))
def test_small_read_point_stays_under_its_ceiling(store, clusters):
    ceiling, _parent = SMALL_R_CEILINGS[store]
    per_op = _events_per_op(clusters, store=store, n_nodes=2,
                            records_per_node=300, measured_ops=300,
                            warmup_ops=40)
    assert per_op <= ceiling


#: store -> (deepest ``yield from`` chain a resume walks now, at the
#: parent commit), on the same points.  Every resume sends into the
#: process's generator and so passes through each frame of the chain
#: down to the one that yielded: a pass-through frame costs on every
#: event beneath it (DESIGN.md § 4b, "Flattening").  HBase's chain is
#: ``run -> attempt_op -> _call_server -> rpc -> hold -> _serve_read ->
#: Hdfs.read -> _transfer | use``.
SMALL_R_DEPTH_CEILINGS = {
    "cassandra": (8, 8),
    "hbase": (8, 9),
    "voldemort": (7, 7),
    "redis": (7, 7),
    "voltdb": (9, 9),
    "mysql": (6, 6),
}


def _deepest_resume(monkeypatch) -> list:
    """Wrap ``Process._step``: the one-element list holds the longest
    generator chain any resume from here on walked."""
    deepest = [0]
    step = Process._step

    def measured_step(process, ok, value):
        depth = 0
        generator = process.generator
        while generator is not None:
            depth += 1
            generator = getattr(generator, "gi_yieldfrom", None)
        if depth > deepest[0]:
            deepest[0] = depth
        step(process, ok, value)
    monkeypatch.setattr(Process, "_step", measured_step)
    return deepest


@pytest.mark.parametrize("store", sorted(SMALL_R_DEPTH_CEILINGS))
def test_small_read_point_resumes_no_deeper_than_its_ceiling(
        store, clusters, monkeypatch):
    ceiling, _parent = SMALL_R_DEPTH_CEILINGS[store]
    deepest = _deepest_resume(monkeypatch)
    _events_per_op(clusters, store=store, n_nodes=2, records_per_node=300,
                   measured_ops=300, warmup_ops=40)
    assert 0 < deepest[0] <= ceiling


def test_hbase_read_fan_out_stays_under_its_ceiling(clusters):
    per_op = _events_per_op(clusters, store="hbase", n_nodes=1,
                            records_per_node=160_000, measured_ops=1_500,
                            warmup_ops=100)
    assert per_op <= HBASE_FAN_OUT_CEILING


# -- house style: a process is spawned only for concurrency --------------------

#: ``(file under src/repro, function)`` -> why the spawn-and-join stays.
SPAWN_AND_JOIN_ALLOWED = {
    ("sim/network.py", "_transfer"):
        "the two NIC holds: joining them reorders same-instant arrivals "
        "at a NIC queue and moved 7 of 14 bench_e2e digests beyond the "
        "landing tolerances (ROADMAP item 2 has the numbers)",
}


def _spawn_and_joins(tree: ast.AST, function: str = "<module>"):
    """``(innermost function, line)`` of every
    ``yield <x>.process(<call>)`` or ``yield <x>.detached(<call>)``,
    in source order."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _spawn_and_joins(node, node.name)
            continue
        if (isinstance(node, ast.Yield)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr in ("process", "detached")
                and node.value.args
                and isinstance(node.value.args[0], ast.Call)):
            yield function, node.lineno
        yield from _spawn_and_joins(node, function)


def test_no_spawn_and_join_outside_the_allow_list():
    root = Path(repro.__file__).parent
    found = set()
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        for function, line in _spawn_and_joins(ast.parse(path.read_text())):
            site = (relative, function)
            assert site in SPAWN_AND_JOIN_ALLOWED, (
                f"{relative}:{line} ({function}) spawns a process only to "
                "join it at once; delegate with `yield from` (DESIGN § 4b) "
                "or allow-list it with a reason")
            found.add(site)
    assert found == set(SPAWN_AND_JOIN_ALLOWED), "stale allow-list entries"
    assert all(reason.strip() for reason in SPAWN_AND_JOIN_ALLOWED.values())


def test_the_guard_sees_the_idiom():
    source = (
        "def serial(sim, node):\n"
        "    yield sim.process(node.cpu(1e-3))\n"
        "    got = yield node.sim.process(node.disk.read(4096))\n"
        "    yield sim.detached(node.cpu(1e-3))\n"
        "def concurrent(sim, node):\n"
        "    sim.detached(node.disk.write(4096))\n"
        "    child = sim.process(node.cpu(1e-3))\n"
        "    yield sim.timeout(1.0)\n"
        "    yield child\n")
    assert list(_spawn_and_joins(ast.parse(source))) == [
        ("serial", 2), ("serial", 3), ("serial", 4)]
