"""Kernel fast-path byte-identity: exports match seed-kernel goldens.

The kernel rewrite (calendar-queue scheduler, freelist events, fused
resource fast paths) must not change a single observable byte of any
run.  These tests pin that bar: three provenance-stamped exports — a
``bench_fig03``-class figure point with chaos + deadlines, a traced +
metered run (guarding trace attribution and deadline propagation on the
fused paths), and an ``apmbench control`` scenario — are digested and
compared against goldens captured with the *seed* (pre-fast-path)
kernel.  Any divergence in event ordering, latency attribution, or
control decisions shows up as a digest mismatch.

Regenerate after an *intentional* semantic change with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_kernel_byte_identity.py -k <name>

The provenance ``package_version`` field is normalised before hashing so
version bumps alone never invalidate the goldens.

The same goldens referee refactors above the kernel: the open-loop
driver (constant-rate sweep, shaped point), the obs harness under a
crash, the audit harness on every store and the quorum sweep are pinned
here too, so "no export byte moved" is a digest comparison rather than
a run-it-twice check.  The replicated paths have their own pins: the
quorum sweep on both replicated stores, traced Cassandra RF=3 points
through a crash and its hint replay, and a hand-driven Voldemort N=3
insert/read/delete cycle under every replica state.  The two read
paths that discard work have theirs, with the rows they return in the
digest beside the statistics: a 4-node MySQL ``RSW`` point (every scan
a sharded fan-out the client merges and truncates) and a 4-node HBase
``R`` point loaded past three flush rounds (every get that reaches disk
probes all of its region's store files, blooms off).  The closed-loop
overlays have theirs: the obs layer's bundle and kept traces through a
crash, and every record an audit recorder logged, in append order.  The
client hops that route through a region server or an entry host have
theirs: traced ``RS`` points on HBase (client buffering on, scans that
continue into the next region) and VoltDB (partition routes, scans
through the round-robin entry host), and an open-loop VoltDB ``RW``
point that keeps several operations in flight on each session.
"""

import hashlib
import json
from dataclasses import asdict, replace
from pathlib import Path
from unittest import mock

import pytest

from repro.analysis.provenance import stamp
from repro.analysis.trace_export import chrome_trace
from repro.audit import (AuditScenario, HistoryRecorder, QuorumSweep,
                         run_audit_scenario, run_quorum_sweep)
from repro.control import ControlPolicy, ControlScenario, run_control_scenario
from repro.faults.schedule import FaultSchedule
from repro.keyspace import format_key
from repro.obs import ObsPolicy, ObsScenario, default_slos, run_obs_scenario
from repro.orchestrator.serialize import histogram_to_dict
from repro.overload import OverloadPolicy, parse_shape
from repro.overload.openloop import (_OpenLoopRun, goodput_sweep,
                                    run_overload_point)
from repro.sim.cluster import CLUSTER_M, Cluster
from repro.sim.faults import FaultError
from repro.storage.lsm import LSMEngine
from repro.stores.base import ServiceProfile
from repro.stores.mysql import MySQLSession
from repro.stores.registry import create_store
from repro.ycsb.generator import generate_records
from repro.ycsb.runner import BenchmarkConfig, run_config
from repro.ycsb.workload import WORKLOADS

from tests.goldens import check_golden
from tests.rows import fields_of

GOLDEN_PATH = Path(__file__).parent / "kernel_byte_identity_golden.json"

#: Small cluster spec shared by the figure-class points.
SMALL_M = replace(CLUSTER_M, connections_per_node=4)


def _normalise(obj):
    """Strip the package version out of provenance stamps, recursively."""
    if isinstance(obj, dict):
        return {
            key: ("<version>" if key == "package_version" else
                  _normalise(value))
            for key, value in obj.items()
        }
    if isinstance(obj, list):
        return [_normalise(value) for value in obj]
    return obj


def _digest(payload: dict) -> str:
    canonical = json.dumps(_normalise(payload), indent=2, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _stats_payload(result) -> dict:
    stats = result.stats
    return {
        "operations": stats.operations,
        "errors": stats.errors,
        "started_at": stats.started_at,
        "finished_at": stats.finished_at,
        "histograms": {
            op.value: histogram_to_dict(h)
            for op, h in sorted(stats.histograms.items(),
                                key=lambda kv: kv[0].value)
            if h.count or h.errors
        },
        "connections": result.connections,
        "store_errors": result.store_errors,
        "disk_bytes_per_server": list(result.disk_bytes_per_server),
    }


def export_figure_point() -> dict:
    """A chaos + deadline figure-class point (replication, failover)."""
    schedule = FaultSchedule().crash("server-0", at=0.4, restart_after=0.4)
    config = BenchmarkConfig(
        store="cassandra", workload=WORKLOADS["R"], n_nodes=3,
        cluster_spec=SMALL_M, records_per_node=300, seed=11,
        fault_schedule=schedule, duration_s=1.2, warmup_ops=0,
        overload=OverloadPolicy(max_queue=64, deadline_s=0.2),
    )
    result = run_config(config)
    payload = _stats_payload(result)
    payload["error_kinds"] = {
        op.value: dict(sorted(h.error_kinds.items()))
        for op, h in sorted(result.stats.histograms.items(),
                            key=lambda kv: kv[0].value)
        if h.error_kinds
    }
    payload["fault_log"] = [[t, desc] for t, desc in result.fault_log]
    payload["timeline"] = (result.stats.timeline.to_text()
                           if result.stats.timeline is not None else None)
    return stamp(payload, config)


def export_traced_point() -> dict:
    """A traced + metered point: pins exact latency attribution."""
    config = BenchmarkConfig(
        store="redis", workload=WORKLOADS["RW"], n_nodes=2,
        cluster_spec=SMALL_M, records_per_node=300, seed=7,
        duration_s=1.0, warmup_ops=0,
        trace_sample_every=5, metrics_interval_s=0.25,
    )
    result = run_config(config)
    breakdown = result.breakdown
    payload = _stats_payload(result)
    payload["traces"] = chrome_trace(result.traces[:50])
    payload["breakdown"] = (
        {"seconds": dict(sorted(breakdown.seconds.items())),
         "ops": breakdown.ops,
         "total_latency": breakdown.total_latency}
        if breakdown is not None else None)
    return stamp(payload, config)


def export_control_scenario() -> dict:
    """An ``apmbench control``-class scenario: both arms, full export."""
    profile = ServiceProfile(read_cpu=2e-3, write_cpu=2e-3,
                             client_cpu=1e-5, dispatch_cpu=0.0)

    def config(n_nodes: int) -> BenchmarkConfig:
        return BenchmarkConfig(
            store="redis", workload=WORKLOADS["R"], n_nodes=n_nodes,
            cluster_spec=CLUSTER_M, records_per_node=500, seed=42,
            overload=OverloadPolicy(max_queue=32, deadline_s=0.25),
            store_kwargs={"profile": profile},
        )

    policy = ControlPolicy(
        tick_s=0.25, scale_out_pressure=0.8, scale_in_pressure=0.55,
        sustain_ticks=2, cooldown_s=0.75, min_nodes=1, max_nodes=3,
        replace_grace_s=0.5, provision_delay_s=0.5,
    )
    auto = ControlScenario(
        config=config(1), offered_rate=900.0, duration_s=10.0,
        shape=parse_shape("diurnal:period=10,trough=0.25"), policy=policy,
        slo_s=0.25, timeline_s=0.5, kill_at_s=7.0,
    )
    static = ControlScenario(
        config=config(3), offered_rate=900.0, duration_s=10.0,
        shape=parse_shape("diurnal:period=10,trough=0.25"), policy=None,
        slo_s=0.25, timeline_s=0.5,
    )
    return {
        "autoscaled": run_control_scenario(auto).to_dict(),
        "static": run_control_scenario(static).to_dict(),
    }


def export_overload_sweep() -> dict:
    """A constant-rate ``apmbench overload`` sweep, both arms.

    The slow profile keeps the saturation probes in the hundreds of
    ops/s; RW on Redis makes the unprotected arm fail inserts (OOM) and
    the protected arm shed.
    """
    profile = ServiceProfile(read_cpu=1e-3, write_cpu=1e-3,
                             client_cpu=1e-5, dispatch_cpu=0.0)
    config = BenchmarkConfig(
        store="redis", workload=WORKLOADS["RW"], n_nodes=1,
        records_per_node=800, measured_ops=500, warmup_ops=100, seed=11,
        overload=OverloadPolicy(max_queue=16, deadline_s=0.05),
        store_kwargs={"profile": profile},
    )
    sweep = goodput_sweep(config, multipliers=(1.0, 2.0), duration_s=0.4,
                          warmup_s=0.1, use_sustained=False)
    return stamp(sweep.to_dict(), config)


def export_shaped_point() -> dict:
    """A flash crowd that sheds and expires: the clock-bounded driver."""
    config = BenchmarkConfig(
        store="mysql", workload=WORKLOADS["RSW"], n_nodes=2,
        cluster_spec=SMALL_M, records_per_node=400, seed=5,
        overload=OverloadPolicy(max_queue=16, deadline_s=0.1),
    )
    point = run_overload_point(
        config, 2500.0, duration_s=1.0, warmup_s=0.2,
        shape=parse_shape("flash:at=0.5,multiplier=8,duration=0.3"))
    return point.to_dict()


def export_obs_report() -> dict:
    """An ``apmbench obs`` incident: crash, retries, breaker, alerts."""
    schedule = FaultSchedule().crash("server-1", at=0.4, restart_after=0.4)
    config = BenchmarkConfig(
        store="cassandra", workload=WORKLOADS["RW"], n_nodes=3,
        cluster_spec=SMALL_M, records_per_node=300, seed=13,
        overload=OverloadPolicy(max_queue=32, deadline_s=0.05),
        fault_schedule=schedule,
    )
    policy = ObsPolicy(slos=default_slos(latency_slo_s=0.05),
                       window_s=0.25, tick_s=0.25)
    scenario = ObsScenario(config=config, policy=policy, offered_rate=700.0,
                           duration_s=1.2, warmup_s=0.1, slo_s=0.05)
    return run_obs_scenario(scenario).to_dict()


#: One audit per store, the fault vocabulary spread across them.
AUDIT_FAULTS = {
    "cassandra": "crash", "hbase": "crash_hard", "voldemort": "partition",
    "redis": "flaky_nic", "voltdb": "zombie", "mysql": "combo",
}


def _export_audit(store: str):
    def export() -> dict:
        scenario = AuditScenario(store=store, fault=AUDIT_FAULTS[store])
        return run_audit_scenario(scenario).to_dict()
    return export


def export_quorum_sweep() -> dict:
    """``apmbench audit --sweep``: R/W/N on replicated Cassandra."""
    return run_quorum_sweep(QuorumSweep())


def export_quorum_sweep_voldemort() -> dict:
    """The same sweep on Voldemort: client-side fan-out, no hints."""
    return run_quorum_sweep(QuorumSweep(store="voldemort"))


def export_traced_replicated_point() -> dict:
    """Traced + metered Cassandra RF=3 points through a crash and its
    restart: writes at QUORUM (hints queued, replayed on restart,
    ``replica_wait`` spans, the fan-out counter), reads at ONE (the
    coordinator serves or forwards) and at QUORUM (newest cell wins).
    Four nodes, so a coordinator may or may not hold a replica."""
    payload = {}
    for read_consistency in ("one", "quorum"):
        schedule = FaultSchedule().crash("server-1", at=0.4,
                                         restart_after=0.4)
        config = BenchmarkConfig(
            store="cassandra", workload=WORKLOADS["RW"], n_nodes=4,
            cluster_spec=SMALL_M, records_per_node=200, seed=17,
            fault_schedule=schedule, duration_s=1.2, warmup_ops=0,
            trace_sample_every=7, metrics_interval_s=0.25,
            store_kwargs={"replication_factor": 3,
                          "consistency_level": "quorum",
                          "read_consistency": read_consistency},
        )
        result = run_config(config)
        point = _stats_payload(result)
        point["fault_log"] = [[t, desc] for t, desc in result.fault_log]
        point["traces"] = chrome_trace(result.traces[:120])
        point["metrics"] = result.metrics.series.to_csv()
        payload[read_consistency] = stamp(point, config)
    return payload


def export_voldemort_quorum_cycle() -> dict:
    """Voldemort N=3, R=W=2, driven by hand: an insert -> read -> delete
    -> read cycle per key with every replica live, one crashed, one
    partitioned but "up", and too few live for the quorum — result or
    error text, completion time and kernel sequence number of every
    operation, then what each node holds."""
    cluster = Cluster(CLUSTER_M, 4)
    store = create_store("voldemort", cluster, replication_factor=3,
                         required_writes=2, required_reads=2)
    store.load(generate_records(40))
    store.warm_caches()
    sim, servers = cluster.sim, cluster.servers
    session = store.session(cluster.clients[0], 0)
    keys = [format_key(i) for i in (3, 11, 27)]
    log = []

    def attempt(label, key, make_op):
        try:
            outcome = yield from make_op()
        except FaultError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        if isinstance(outcome, tuple):  # a row read: logged by field
            outcome = fields_of(outcome)
        log.append([label, key, outcome, sim.now, sim._sequence])

    def cycle(phase):
        for key in keys:
            row = (f"{phase}-{key[-4:]}", None, None, None, None)
            for label, make_op in (
                    ("insert", lambda: session.insert(key, row)),
                    ("read", lambda: session.read(key)),
                    ("delete", lambda: session.delete(key)),
                    ("read-after-delete", lambda: session.read(key)),
                    ("reinsert", lambda: session.insert(key, row))):
                yield from attempt(f"{phase}:{label}", key, make_op)

    def drive():
        yield from cycle("live")
        victim = servers[store.replica_nodes_of(keys[0])[1]]
        victim.fail()
        yield from cycle("one-down")
        victim.recover()
        cluster.network.partition([[victim.name]])
        yield from cycle("one-partitioned")
        cluster.network.heal()
        for index in store.replica_nodes_of(keys[0])[:2]:
            servers[index].fail()
        yield from cycle("two-down")

    sim.run(until=sim.process(drive()))
    return {
        "log": log,
        "versions": [dict(sorted(store.versions[i].items()))
                     for i in range(len(servers))],
        "held": [[key for key in keys if tree.get(key)[0] is not None]
                 for tree in store.trees],
        "log_bytes": list(store.log_bytes),
        "end": sim.now,
    }


class _RowLog:
    """What a read path handed back, call by call, folded into one
    SHA-256 so the payload stays small.  A row is logged as its field
    dict (``fields_of``), the form the digests were first taken of when
    stores returned dicts."""

    def __init__(self):
        self.calls = 0
        self._sha = hashlib.sha256()

    def note(self, *returned) -> None:
        self.calls += 1
        self._sha.update(json.dumps(returned, sort_keys=True).encode())

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def export_sharded_scan_point() -> dict:
    """A 4-node MySQL ``RSW`` point: every scan fans out to all four
    shards and the client keeps ``count`` of the rows they stream.  The
    rows each scan returned are in the digest, in completion order."""
    config = BenchmarkConfig(
        store="mysql", workload=WORKLOADS["RSW"], n_nodes=4,
        cluster_spec=SMALL_M, records_per_node=300, seed=23,
        measured_ops=600, warmup_ops=50,
    )
    log = _RowLog()
    rows_returned = []
    scan = MySQLSession.scan

    def recorded(self, start_key, count):
        rows = yield from scan(self, start_key, count)
        log.note(start_key, count, self.store.sim.now,
                 [(key, fields_of(row)) for key, row in rows])
        rows_returned.append(len(rows))
        return rows

    with mock.patch.object(MySQLSession, "scan", recorded):
        result = run_config(config)
    assert log.calls > 100 and max(rows_returned) > 1
    payload = _stats_payload(result)
    payload["scans"] = log.calls
    payload["rows_returned"] = sum(rows_returned)
    payload["rows_sha256"] = log.hexdigest()
    return stamp(payload, config)


def export_multi_file_read_point() -> dict:
    """A 4-node HBase ``R`` point over 12 000 records: three flush
    rounds leave three store files a region (one short of the minor
    compaction), so with blooms off a get probes all three.  Every
    engine get's block ids and returned fields are in the digest."""
    config = BenchmarkConfig(
        store="hbase", workload=WORKLOADS["R"], n_nodes=4,
        cluster_spec=SMALL_M, records_per_node=3000, seed=29,
        measured_ops=1200, warmup_ops=100,
    )
    log = _RowLog()
    runs_probed = []
    get = LSMEngine.get

    def recorded(self, key):
        result = get(self, key)
        log.note(key, result.bill.blocks, None if result.row is None
                 else fields_of(result.row))
        runs_probed.append(result.bill.runs_touched)
        return result

    with mock.patch.object(LSMEngine, "get", recorded):
        result = run_config(config)
    # All but the few keys beyond a file's first or last key.
    assert len(runs_probed) > 1000
    assert runs_probed.count(3) > 0.99 * len(runs_probed)
    payload = _stats_payload(result)
    payload["gets"] = log.calls
    payload["sstables_probed"] = sum(runs_probed)
    payload["gets_sha256"] = log.hexdigest()
    return stamp(payload, config)


def export_closed_loop_obs() -> dict:
    """``run_config(obs=...)`` through a crash, with deadlines, a
    warm-up and telemetry: the layer's bundle, the traces it kept and
    the registry its latency histograms fed."""
    schedule = FaultSchedule().crash("server-1", at=0.3, restart_after=0.3)
    config = BenchmarkConfig(
        store="cassandra", workload=WORKLOADS["RW"], n_nodes=2,
        cluster_spec=SMALL_M, records_per_node=300, seed=19,
        fault_schedule=schedule, duration_s=0.8, warmup_ops=100,
        overload=OverloadPolicy(max_queue=32, deadline_s=0.05),
        trace_sample_every=2, metrics_interval_s=0.25,
    )
    policy = ObsPolicy(slos=default_slos(latency_slo_s=0.05),
                       window_s=0.25, tick_s=0.25)
    result = run_config(config, obs=policy)
    payload = _stats_payload(result)
    payload["observability"] = result.obs.to_payload()
    payload["traces"] = chrome_trace(result.traces)
    payload["prometheus"] = result.metrics.to_prometheus()
    return stamp(payload, config)


def export_closed_loop_audit() -> dict:
    """``run_config(audit=...)`` through a crash with deadlines: every
    record the recorder logged, warm-up included, in append order."""
    schedule = FaultSchedule().crash("server-1", at=0.2, restart_after=0.2)
    config = BenchmarkConfig(
        store="cassandra", workload=WORKLOADS["RW"], n_nodes=2,
        cluster_spec=SMALL_M, records_per_node=300, seed=31,
        fault_schedule=schedule, duration_s=0.6, warmup_ops=100,
        overload=OverloadPolicy(max_queue=32, deadline_s=0.05),
    )
    recorder = HistoryRecorder(sim=None)
    run_config(config, audit=recorder)
    return stamp({"records": [asdict(r) for r in recorder.records]},
                 config)


def _traced_scan_point(store: str, duration_s: float, seed: int) -> tuple:
    """A traced 2-node ``RS`` point: the stamped stats with every kept
    trace's span tree and route annotations, and the traces."""
    config = BenchmarkConfig(
        store=store, workload=WORKLOADS["RS"], n_nodes=2,
        cluster_spec=SMALL_M, records_per_node=300, seed=seed,
        duration_s=duration_s, warmup_ops=0, trace_sample_every=3,
    )
    result = run_config(config)
    payload = _stats_payload(result)
    payload["traces"] = chrome_trace(result.traces)
    return stamp(payload, config), result.traces


def export_hbase_scan_point() -> dict:
    """HBase ``RS`` with client buffering on: reads and scans annotated
    with their region and server, buffered inserts flushing, and scans
    near a region's end continuing in the next region (a second handler
    hold inside the scan's span)."""
    payload, traces = _traced_scan_point("hbase", 1.5, 37)
    continued = [
        trace for trace in traces if trace.op == "scan"
        and sum(span.name.startswith("handler:")
                for span in trace.spans()) > 1]
    assert len(continued) > 10
    return payload


def export_voltdb_scan_point() -> dict:
    """VoltDB ``RS``: reads and inserts annotated with their partition,
    multi-partition scans initiated at the round-robin entry host."""
    payload, traces = _traced_scan_point("voltdb", 0.05, 41)
    assert {trace.op for trace in traces} == {"read", "scan", "insert"}
    return payload


def export_open_loop_voltdb() -> dict:
    """Open-loop VoltDB ``RW`` past its queue bound: arrivals share the
    eight sessions, each with several operations in flight, and their
    entry hosts rotate per session.  The point and every operation an
    audit recorder saw, in ack order."""
    config = BenchmarkConfig(
        store="voltdb", workload=WORKLOADS["RW"], n_nodes=2,
        cluster_spec=SMALL_M, records_per_node=300, seed=43,
        overload=OverloadPolicy(max_queue=16, deadline_s=0.05),
    )
    run = _OpenLoopRun(config, 40000.0, 0.2, 0.05, 0.05)
    recorder = HistoryRecorder(sim=None)
    run.watchers.append(recorder)
    point = run.run()
    in_flight = peak = 0
    for __, step in sorted(
            [(r.t_invoke, 1) for r in recorder.records if r.session == 0]
            + [(r.t_ack, -1) for r in recorder.records if r.session == 0]):
        in_flight += step
        peak = max(peak, in_flight)
    assert peak >= 4 and point.shed > 0
    return stamp({"point": point.to_dict(),
                  "records": [asdict(r) for r in recorder.records]},
                 config)


EXPORTS = {
    "figure_point": export_figure_point,
    "traced_point": export_traced_point,
    "control_scenario": export_control_scenario,
    "overload_sweep": export_overload_sweep,
    "shaped_point": export_shaped_point,
    "obs_report": export_obs_report,
    **{f"audit_{store}": _export_audit(store) for store in AUDIT_FAULTS},
    "quorum_sweep": export_quorum_sweep,
    "quorum_sweep_voldemort": export_quorum_sweep_voldemort,
    "traced_replicated_point": export_traced_replicated_point,
    "voldemort_quorum_cycle": export_voldemort_quorum_cycle,
    "sharded_scan_point": export_sharded_scan_point,
    "multi_file_read_point": export_multi_file_read_point,
    "closed_loop_obs": export_closed_loop_obs,
    "closed_loop_audit": export_closed_loop_audit,
    "hbase_scan_point": export_hbase_scan_point,
    "voltdb_scan_point": export_voltdb_scan_point,
    "open_loop_voltdb": export_open_loop_voltdb,
}


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_export_matches_seed_kernel_golden(name):
    # A mismatch means observable behaviour changed: event ordering,
    # latency attribution, control decisions or an export's bytes.
    check_golden(GOLDEN_PATH, (name,), _digest(EXPORTS[name]()))
