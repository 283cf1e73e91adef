"""Differential suite for "a process is spawned only for concurrency".

DESIGN.md § 4b: a serial callee is delegated to with ``yield from``; a
process is spawned only where work overlaps (replica fan-out, multi-put
batches, ``detached`` background work, client threads).  Before that
rule every ``Node.cpu``, ``Disk.read/write`` and all three legs of
``Network.rpc`` were written ``yield sim.process(generator)`` — spawned
and joined on the spot, two extra kernel events and a ``Process`` each.

The spawning forms live on here as *reference implementations* (the
PR 7 method: keep the old code in ``tests/`` and compare whole runs).
Each shim monkeypatches one joined site back to spawn-and-join; the
shimmed run must schedule strictly more kernel events and compute the
same point.

What "the same" can mean is set by what a join changes.  No modelled
quantity moves, but a joined callee runs earlier *within* its simulated
instant than a spawned one did, the kernel promises nothing finer than
``(time, sequence)`` order, and when two claims land on one saturated
station at the very same instant their FIFO order can swap — which a
closed loop then carries forward.  Per site (DESIGN.md § 4b has the
measurements):

* CPU, disk and RPC-transfer joins shift every claimant of a station
  alike.  On this grid, as on all 42 ``bench_e2e`` point digests, the
  ``result_to_dict`` payload is byte-identical, and that is asserted —
  with one exception: HBase R on the disk-bound cluster, whose disk
  join moves throughput by 1.1 % (pinned as a strict ``xfail``).  It is
  a property of these points, not a theorem: a few figure-grid points
  move too, by under 0.2 % in throughput.
* The RPC *handler* join advances only work that arrived by RPC
  relative to a node's local and background work, so ties flip more
  readily: here at cassandra/R on the disk-bound cluster (one maximum
  latency differs), and on one of the 42 digests.  Its shim is compared
  the way a reordering site has to be — operation counts exact;
  throughput and the per-operation latency multisets (histogram counts
  and percentiles) within the tolerances its landing was held to.
* A span trace sees inside an instant, in two harmless ways: spans
  that begin at the same instant may be listed in another order, and a
  claim that arrives just before a same-instant release records a
  zero-length ``wait``.  The traced point therefore compares
  Chrome-trace exports as multisets of events without zero-length
  waits; everything else about it is compared exactly.
"""

import json
from collections import Counter
from dataclasses import replace

import pytest

from repro.analysis.trace_export import chrome_trace
from repro.faults.schedule import FaultSchedule
from repro.orchestrator.serialize import histogram_to_dict, result_to_dict
from repro.overload import OverloadPolicy
from repro.sim.cluster import CLUSTER_D, CLUSTER_M, Node
from repro.sim.network import Network
from repro.stores.registry import STORE_NAMES, store_class
from repro.ycsb.runner import BenchmarkConfig, run_config
from repro.ycsb.workload import WORKLOADS
from tests.sim.reference_hdfs import shim_reference_read

SMALL_M = replace(CLUSTER_M, connections_per_node=4)
#: The disk-bound cluster.  Its scaled RAM floor leaves each server a
#: 256 KiB page cache: at 300 records a node that holds all the data, at
#: 2 000 it does not, and Cassandra's and HBase's reads reach
#: ``Disk.read`` (asserted).  MySQL's reads do not reach the disk here
#: at any size this grid can afford (0–1 misses up to 8 000 records).
SMALL_D = replace(CLUSTER_D, connections_per_node=4)

#: Points at which no read or write reaches a disk queue — the in-memory
#: stores, and reads of data the page cache holds — so the disk shim
#: has nothing to spawn there, which is asserted.
DISKLESS = {"cassandra-R-M", "hbase-R-M", "mysql-R-M", "mysql-R-D",
            *(f"{store}-{mix}-M" for store in ("redis", "voltdb")
              for mix in ("R", "RW", "W", "RSW"))}

#: The point whose disk join moves its payload; see
#: ``test_the_disk_join_moves_hbase_reads_on_cluster_d``.
DISK_MOVER = "hbase-R-D"

#: Tolerances for a site that may reorder same-instant arrivals (the
#: landing protocol's: throughput 0.25 %, percentiles 1 %).
THROUGHPUT_TOLERANCE = 0.0025
PERCENTILE_TOLERANCE = 0.01


# -- reference implementations: the spawn-and-join forms -----------------------


def _spawned(sim, generator):
    """The removed idiom: run a serial callee as a process, join at once."""
    result = yield sim.process(generator)
    return result


def _reference_rpc(spawn_transfers: bool, spawn_handler: bool):
    """``Network.rpc`` with the chosen legs spawned and joined again."""
    def rpc(self, src, dst, request_bytes, response_bytes, handler):
        src_name = src if isinstance(src, str) else src.name
        dst_name = dst if isinstance(dst, str) else dst.name

        def leg(generator, spawn):
            return _spawned(self.sim, generator) if spawn else generator
        yield from leg(self.transfer(src_name, dst_name, request_bytes),
                       spawn_transfers)
        result = yield from leg(handler, spawn_handler)
        yield from leg(self.transfer(dst_name, src_name, response_bytes),
                       spawn_transfers)
        return result
    return rpc


def _shim_holds(monkeypatch, station):
    """``yield sim.process(station.use(duration))`` for ``station(node)``
    of every node built from here on."""
    init = Node.__init__

    def node_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        resource = station(self)
        use = resource.use
        resource.use = lambda duration: _spawned(self.sim, use(duration))
    monkeypatch.setattr(Node, "__init__", node_init)


def _shim_cpu(monkeypatch):
    """``Node.cpu``'s core hold."""
    _shim_holds(monkeypatch, lambda node: node.cpus)


def _shim_disk(monkeypatch):
    """``Disk.read`` and sync ``Disk.write``'s queue hold, traced or not."""
    _shim_holds(monkeypatch, lambda node: node.disk.queue)


def _shim_transfers(monkeypatch):
    """``Network.rpc``'s request and response transfers."""
    monkeypatch.setattr(Network, "rpc", _reference_rpc(True, False))


def _shim_handler(monkeypatch):
    """``Network.rpc``'s handler."""
    monkeypatch.setattr(Network, "rpc", _reference_rpc(False, True))


IDENTITY_SHIMS = {"cpu": _shim_cpu, "disk": _shim_disk,
                  "transfers": _shim_transfers}


# -- running a point and reading what it computed ------------------------------


def _run(config):
    return run_config(config)


def _payload(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


def _grid():
    for store in STORE_NAMES:
        mixes = ["R", "RW", "W"]
        if store_class(store).supports_scans:
            mixes.append("RSW")
        for mix in mixes:
            yield store, mix, SMALL_M, 300
    yield "cassandra", "R", SMALL_D, 2_000
    yield "hbase", "R", SMALL_D, 2_000
    yield "mysql", "R", SMALL_D, 300


def _config(store, mix, spec, records_per_node=300):
    return BenchmarkConfig(
        store=store, workload=WORKLOADS[mix], n_nodes=2, cluster_spec=spec,
        records_per_node=records_per_node, measured_ops=300, warmup_ops=40,
        seed=16)


GRID = [pytest.param(store, mix, spec, records,
                     id=f"{store}-{mix}-{spec.name}")
        for store, mix, spec, records in _grid()]


@pytest.mark.parametrize("store,mix,spec,records", GRID)
def test_spawning_shims_compute_the_same_point(store, mix, spec, records,
                                               clusters):
    """Every store x workload: each shim computes the same point (byte
    for byte; the handler within tolerance) in more kernel events —
    the disk shim in as many where nothing reaches a disk queue."""
    point = f"{store}-{mix}-{spec.name}"
    config = _config(store, mix, spec, records)
    real = _run(config)
    real_payload = _payload(real)
    real_events = clusters[-1].sim._sequence
    if spec is SMALL_D and point not in DISKLESS:
        assert sum(server.page_cache.misses
                   for server in clusters[-1].servers) > 0
    shims = {**IDENTITY_SHIMS, "handler": _shim_handler}
    if point == DISK_MOVER:
        del shims["disk"]
    for name, shim in shims.items():
        with pytest.MonkeyPatch.context() as patch:
            shim(patch)
            shimmed = _run(config)
        events = clusters[-1].sim._sequence
        if name == "disk" and point in DISKLESS:
            assert events == real_events, name
        else:
            assert events > real_events, name
        if name == "handler":
            _assert_same_within_tolerance(real, shimmed)
        else:
            same = _payload(shimmed) == real_payload
            assert same, name


@pytest.mark.xfail(strict=True, reason=(
    "at 2 000 records a node (254 page-cache misses) the spawned disk "
    "hold moves HBase R on Cluster D from 1172.4 to 1185.8 ops/s "
    "(+1.1 %), past the 0.25 % a reordering site is held to"))
def test_the_disk_join_moves_hbase_reads_on_cluster_d(clusters):
    """The one grid point where the disk join is not byte-identical.

    Cassandra R on the same cluster reaches ``Disk.read`` too (112
    misses) and stays byte-identical.  Which same-instant tie flips
    for HBase (see the module docstring) has not been traced.
    """
    config = _config("hbase", "R", SMALL_D, 2_000)
    real = _run(config)
    with pytest.MonkeyPatch.context() as patch:
        _shim_disk(patch)
        shimmed = _run(config)
    _assert_same_within_tolerance(real, shimmed)
    assert _payload(shimmed) == _payload(real)


def _assert_same_within_tolerance(real, shimmed):
    """The comparison a tie-reordering site is held to (see the module
    docstring): counts exact, latency multisets and throughput close."""
    assert shimmed.stats.operations == real.stats.operations
    assert shimmed.stats.errors == real.stats.errors
    assert shimmed.store_errors == real.store_errors
    assert shimmed.throughput_ops == pytest.approx(
        real.throughput_ops, rel=THROUGHPUT_TOLERANCE)
    assert shimmed.stats.histograms.keys() == real.stats.histograms.keys()
    for op, histogram in real.stats.histograms.items():
        other = shimmed.stats.histograms[op]
        assert other.count == histogram.count, op
        for percentile in (50, 95, 99):
            assert other.percentile(percentile) == pytest.approx(
                histogram.percentile(percentile),
                rel=PERCENTILE_TOLERANCE), (op, percentile)


#: ``sim._sequence`` of ``_config("hbase", "R", SMALL_M)`` at the parent
#: commit (v1.7.0), where every site still spawned.
PARENT_HBASE_R_EVENTS = 36_890


def test_all_shims_together_replay_the_old_event_stream(clusters):
    """The shims are the old code: with every site spawning again the
    kernel schedules exactly the events the parent commit did.  HBase's
    block probes are each a ``Network.rpc`` again, as they were there
    (``tests/sim/reference_hdfs.py``)."""
    config = _config("hbase", "R", SMALL_M)
    with pytest.MonkeyPatch.context() as patch:
        _shim_cpu(patch)
        _shim_disk(patch)
        patch.setattr(Network, "rpc", _reference_rpc(True, True))
        shim_reference_read(patch)
        _run(config)
    assert clusters[-1].sim._sequence == PARENT_HBASE_R_EVENTS


# -- traced + deadline + chaos -------------------------------------------------


def _observed_point(store):
    schedule = FaultSchedule().crash("server-0", at=0.2, restart_after=0.2)
    return BenchmarkConfig(
        store=store, workload=WORKLOADS["RW"], n_nodes=3,
        cluster_spec=SMALL_M, records_per_node=300, seed=11,
        fault_schedule=schedule, duration_s=0.6, warmup_ops=0,
        overload=OverloadPolicy(max_queue=64, deadline_s=0.004),
        trace_sample_every=10,
    )


def _observed(result) -> tuple:
    """What the observed point computed: exact facts, and its trace
    export as a multiset of events without zero-length waits."""
    breakdown = result.breakdown
    stats = result.stats
    exact = json.dumps({
        "operations": stats.operations,
        "errors": stats.errors,
        "finished_at": stats.finished_at,
        "histograms": {op.value: histogram_to_dict(histogram)
                       for op, histogram in stats.histograms.items()},
        "error_kinds": {
            op.value: dict(sorted(histogram.error_kinds.items()))
            for op, histogram in stats.histograms.items()},
        "attribution": {
            "seconds": dict(sorted(breakdown.seconds.items())),
            "ops": breakdown.ops,
            "total_latency": breakdown.total_latency},
        "fault_log": result.fault_log,
    }, sort_keys=True, default=str)
    spans = Counter(
        json.dumps(event, sort_keys=True)
        for event in chrome_trace(result.traces)["traceEvents"]
        if not (event.get("name") == "wait" and event.get("dur") == 0.0))
    return exact, spans


@pytest.mark.parametrize("store", ["cassandra", "hbase"])
def test_traced_deadline_chaos_point_is_identical(store):
    """Spans, deadlines and a crash: the error-kind split, the
    attribution sums and the Chrome-trace export, shim against real.

    Deadlines and trace contexts were inherited at spawn and now stay in
    the caller's frame; an exception raised before a callee's first
    yield was thrown in at the completion event and is now raised in the
    caller at the same instant; a crash throws only into the event a
    generator awaits.  None of that may show.
    """
    config = _observed_point(store)
    real = _run(config)
    kinds = {kind for histogram in real.stats.histograms.values()
             for kind in histogram.error_kinds}
    assert real.traces and {"deadline", "fault"} <= kinds, \
        "the point must exercise spans, deadlines and the crash"
    real_exact, real_spans = _observed(real)
    for name, shim in IDENTITY_SHIMS.items():
        with pytest.MonkeyPatch.context() as patch:
            shim(patch)
            exact, spans = _observed(_run(config))
        # Booleans first: pytest's diff of two multi-megabyte values
        # takes minutes.
        same_facts, same_spans = exact == real_exact, spans == real_spans
        assert same_facts, name
        assert same_spans, name
