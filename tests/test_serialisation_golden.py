"""Every exported record pinned on its own, off its defaults.

The policies, scenarios and verdicts reach a golden today only inside a
whole export (``tests/integration/kernel_byte_identity_golden.json``,
``tests/cli_golden.json``) and mostly with their default values, so a
field dropped from one ``to_dict`` can hide behind a default.  Here each
class is built by hand — no simulation — with every defaulted field set
to something else, and the sha256 of its JSON projection is compared
with ``tests/serialisation_golden.json``.  Six configurations pin
``BenchmarkConfig.content_key()`` and ``content_hash()``: the memo key,
the ``ResultStore`` address and the wire form every worker is rebuilt
from.

Regenerate after an *intentional* change of an export's bytes with::

    PYTHONPATH=src python -m tests.test_serialisation_golden
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.audit import AuditScenario, QuorumSweep
from repro.audit.harness import AuditReport
from repro.control import ControlPolicy, ControlScenario
from repro.control.harness import ControlRunResult
from repro.control.policy import ControlDecision
from repro.faults.schedule import FaultSchedule
from repro.metrics.saturation import (NodeUtilization, ResourceUtilization,
                                      SaturationReport, SaturationVerdict)
from repro.metrics.sustained import SubWindow, SustainedVerdict
from repro.obs import ObsPolicy, ObsScenario
from repro.obs.harness import ObsReport
from repro.obs.policy import SLO, BurnRateRule
from repro.overload import OverloadPolicy
from repro.overload.openloop import (OverloadPoint, OverloadSweep,
                                     SaturationEstimate)
from repro.overload.shapes import DiurnalShape, FlashCrowdShape, StepShape
from repro.plan.model import ModeledCapacity
from repro.sim.cluster import CLUSTER_D
from repro.stores.base import RetryPolicy
from repro.ycsb.runner import BenchmarkConfig
from repro.ycsb.workload import WORKLOAD_R, WORKLOAD_RW, Workload
from tests.integration.test_kernel_byte_identity import _normalise

GOLDEN_PATH = Path(__file__).parent / "serialisation_golden.json"

CUSTOM_WORKLOAD = Workload("X", read_proportion=0.5, insert_proportion=0.1,
                           scan_proportion=0.2, update_proportion=0.15,
                           delete_proportion=0.05, scan_length=25,
                           distribution="zipfian")

OVERLOAD_POLICY = OverloadPolicy(max_queue=16, deadline_s=0.05,
                                 retry_budget_per_s=40.0,
                                 retry_budget_burst=5.0,
                                 circuit_breaker=False)

#: The six configurations whose identity is pinned.
CONFIGS = {
    "plain": BenchmarkConfig(store="redis", workload=WORKLOAD_R, n_nodes=2),
    "cluster_d_custom_workload": BenchmarkConfig(
        store="hbase", workload=CUSTOM_WORKLOAD, n_nodes=3,
        cluster_spec=CLUSTER_D, records_per_node=777,
        paper_records_per_node=5_000_000, measured_ops=123, warmup_ops=7,
        seed=977, target_throughput=1234.5, duration_s=2.5,
        availability_window_s=0.5, trace_sample_every=4,
        trace_max_traces=50, metrics_interval_s=0.125,
        sustained_subwindows=5, sustained_tolerance=0.5),
    "overload": BenchmarkConfig(store="mysql", workload=WORKLOAD_RW,
                                n_nodes=2, overload=OVERLOAD_POLICY),
    "nested_store_kwargs": BenchmarkConfig(
        store="cassandra", workload=WORKLOAD_RW, n_nodes=4,
        store_kwargs={"replication_factor": 3,
                      "consistency_level": "quorum",
                      "tuning": {"b": [1, 2.5, None], "a": {"z": True}}}),
    "fault_schedule": BenchmarkConfig(
        store="cassandra", workload=WORKLOAD_R, n_nodes=3,
        fault_schedule=FaultSchedule().crash("server-1", at=0.4,
                                             restart_after=0.4)),
    "retry": BenchmarkConfig(
        store="voldemort", workload=WORKLOAD_R, n_nodes=2,
        retry=RetryPolicy(max_attempts=5, backoff_s=0.01)),
}

SLO_LATENCY = SLO(name="reads-fast", kind="latency", target=0.95,
                  threshold_s=0.05, error_kinds=("overload", "deadline"),
                  ops=("read", "scan"))
BURN_RULE = BurnRateRule(name="fast", long_s=3.0, short_s=0.75, factor=6.0,
                         severity="ticket", clear_ratio=0.8)
OBS_POLICY = ObsPolicy(
    slos=(SLO_LATENCY, SLO(name="up", kind="availability", target=0.999)),
    rules=(BURN_RULE,), window_s=0.5, tick_s=0.125, exemplars_per_bucket=3,
    exemplars_per_violation=5, max_alert_exemplars=2,
    tail_slow_threshold_s=0.04, tail_keep_budget=77, tail_baseline_every=9,
    candidate_every=2, recorder_capacity=64, recorder_max_dumps=3,
    recorder_min_gap_s=0.25)
CONTROL_POLICY = ControlPolicy(
    tick_s=0.5, scale_out_pressure=0.8, scale_in_pressure=0.4,
    sustain_ticks=3, cooldown_s=0.75, min_nodes=2, max_nodes=5,
    replace_grace_s=0.25, provision_delay_s=0.5, shed_rate_per_s=12.5)
FLASH = FlashCrowdShape(at_s=0.5, duration_s=0.3, multiplier=8.0)
OVERLOAD_POINT = OverloadPoint(
    store="mysql", workload="RSW", n_nodes=2, protected=True,
    offered_rate=2500.0, duration_s=1.0, slo_s=0.1, arrivals=2400,
    in_slo=2100, succeeded=2250, error_kinds={"overload": 120,
                                              "deadline": 30},
    goodput=2100.0, mean_latency_s=0.0123, max_queue_depth=17, shed=120,
    shape=FLASH.to_dict())
SATURATION_ESTIMATE = SaturationEstimate(rate=900.0, throughput=950.5,
                                         floor=880.25, peak=990.0,
                                         open_loop=900.0)
AUDIT_SCENARIO = AuditScenario(
    store="voldemort", n_nodes=4, n_sessions=3, n_keys=9,
    ops_per_session=40, write_fraction=0.25, op_gap_s=0.01, seed=7,
    fault="partition", replication_factor=3, required_writes=2,
    required_reads=2, linearize_budget=1000)
CONTROL_SCENARIO = ControlScenario(
    config=CONFIGS["overload"], offered_rate=900.0, duration_s=10.0,
    shape=DiurnalShape(period_s=10.0, trough_fraction=0.5),
    policy=CONTROL_POLICY, slo_s=0.1, timeline_s=0.25, kill_at_s=7.0,
    kill_node="server-1")
OBS_SCENARIO = ObsScenario(
    config=CONFIGS["fault_schedule"], policy=OBS_POLICY, offered_rate=700.0,
    duration_s=1.2, warmup_s=0.1, shape=StepShape(at_s=0.5, factor=3.0),
    timeline_s=0.25, slo_s=0.05, max_export_traces=10)
CONTROL_DECISION = ControlDecision(
    t=1.25, action="scale_out", node="server-3",
    reason="sustained cpu pressure 0.91 >= 0.80 for 3 ticks",
    pressure=0.91, bottleneck="cpu", n_active=4)
SATURATION_VERDICT = SaturationVerdict(
    bottleneck="disk", pressure=0.83, peak=0.97, peak_node="server-2",
    saturated=True, narrative="disk-bound: the working set misses RAM")

#: name -> an instance with every defaulted field set off its default.
INSTANCES = {
    "AuditScenario": AUDIT_SCENARIO,
    "AuditReport": AuditReport(
        scenario=AUDIT_SCENARIO, history={"ops": 120, "writes_acked": 30},
        durability={"ok": True, "violations": []},
        sessions={"ok": False, "read_your_writes": [{"key": "k1"}]},
        staleness={"stale_reads": 2, "max_lag": 3},
        linearizability={"ok": True, "violations": []},
        chaos_log=[[0.4, "partition server-1"]],
        loss_manifest=[{"node": "server-1", "reason": "declared"}],
        flight_recorder={"dumps": []}),
    "QuorumSweep": QuorumSweep(
        store="voldemort", n_nodes=4, replication_factor=2,
        points=((1, 1), (1, 2), (2, 2)), fault="crash", seed=7,
        n_sessions=3, n_keys=9, ops_per_session=40, write_fraction=0.25,
        op_gap_s=0.01),
    "ControlPolicy": CONTROL_POLICY,
    "ControlDecision": CONTROL_DECISION,
    "ControlScenario": CONTROL_SCENARIO,
    "ControlRunResult": ControlRunResult(
        scenario=CONTROL_SCENARIO, point=OVERLOAD_POINT.to_dict(),
        timeline=[{"t0": 0.0, "arrivals": 10, "in_slo": 9}],
        decisions=[CONTROL_DECISION.to_dict()], node_seconds=23.5,
        n_active_end=3, bytes_moved=4096, moves_billed=12, ticks=40),
    "SaturationVerdict": SATURATION_VERDICT,
    "SaturationReport": SaturationReport(
        t0=0.5, t1=1.5,
        nodes=(NodeUtilization(node="server-0", cpu=0.5, disk=0.83,
                               network=0.1, executor=None,
                               cache_hit_rate=0.75, ops=812.0),
               NodeUtilization(node="server-2", cpu=0.4, disk=0.97,
                               network=0.2, executor=0.3,
                               cache_hit_rate=None, ops=640.0)),
        resources=(ResourceUtilization(resource="cpu", mean=0.45, peak=0.5,
                                       peak_node="server-0"),
                   ResourceUtilization(resource="disk", mean=0.9, peak=0.97,
                                       peak_node="server-2")),
        bottleneck="disk", verdict="disk-bound: the working set misses RAM"),
    "SustainedVerdict": SustainedVerdict(
        windows=(SubWindow(start=0.0, end=0.5, throughput=1000.0),
                 SubWindow(start=0.5, end=1.0, throughput=800.0)),
        peak=1000.0, floor=800.0, degradation=0.2, tolerance=0.25,
        sustained=True),
    "ObsPolicy": OBS_POLICY,
    "SLO": SLO_LATENCY,
    "BurnRateRule": BURN_RULE,
    "ObsScenario": OBS_SCENARIO,
    "ObsReport": ObsReport(
        scenario=OBS_SCENARIO, point=OVERLOAD_POINT.to_dict(),
        timeline=[{"t0": 0.0, "arrivals": 10, "in_slo": 9}],
        observability={"slo": {"alerts": [], "budgets": {}},
                       "flight_recorder": {"dumps": []}},
        traces={"traceEvents": []}, prometheus="# EOF\n",
        metrics_csv="t,channel,value\n", exemplars_csv="window_start\n"),
    "OverloadPolicy": OVERLOAD_POLICY,
    "OverloadPoint": OVERLOAD_POINT,
    "SaturationEstimate": SATURATION_ESTIMATE,
    "OverloadSweep": OverloadSweep(
        config=CONFIGS["overload"], saturation=SATURATION_ESTIMATE,
        multipliers=(1.0, 2.0), protected=[OVERLOAD_POINT],
        unprotected=[dataclasses.replace(OVERLOAD_POINT, protected=False,
                                         shape=None)]),
    "DiurnalShape": DiurnalShape(period_s=10.0, trough_fraction=0.5),
    "FlashCrowdShape": FLASH,
    "StepShape": StepShape(at_s=0.5, factor=3.0),
    "ModeledCapacity": ModeledCapacity(
        store="cassandra", hardware="modern-ssd", n_nodes=3,
        cpu_ops_per_node=12345.678, disk_ops_per_node=2345.678,
        network_ops_per_node=float("inf"), ops_per_s=7037.034,
        binding="disk", miss_ratio=0.123456),
    "BenchmarkConfig": CONFIGS["cluster_d_custom_workload"],
}


def _projection(obj) -> dict:
    """The record's export: ``to_dict()``, ``to_payload()`` or ``row()``."""
    for method in ("to_dict", "to_payload", "row"):
        if hasattr(obj, method):
            return getattr(obj, method)()
    raise AssertionError(f"{type(obj).__name__} has no export method")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _current() -> dict:
    records = {name: _sha256(json.dumps(_normalise(_projection(obj)),
                                        sort_keys=True))
               for name, obj in INSTANCES.items()}
    configs = {name: {"content_key": config.content_key(),
                      "content_hash": config.content_hash()}
               for name, config in CONFIGS.items()}
    return {"records": records, "configs": configs}


def test_instances_are_off_their_defaults():
    """A field left at its default could drop out of an export unseen."""
    #: (class, field) -> why the pinned instance keeps the default.
    kept = {
        ("BenchmarkConfig", "store_kwargs"): "pinned by its own config",
        ("BenchmarkConfig", "fault_schedule"): "pinned by its own config",
        ("BenchmarkConfig", "retry"): "pinned by its own config",
        ("BenchmarkConfig", "overload"): "pinned by its own config",
    }
    for name, obj in INSTANCES.items():
        for field in dataclasses.fields(obj):
            if field.default is dataclasses.MISSING \
                    or (name, field.name) in kept:
                continue
            assert getattr(obj, field.name) != field.default, (
                f"{name}.{field.name} is at its default in the pinned "
                "instance; set it to something else")


@pytest.mark.parametrize("section, name", [
    *(("records", name) for name in sorted(INSTANCES)),
    *(("configs", name) for name in sorted(CONFIGS)),
])
def test_matches_golden(section, name):
    goldens = json.loads(GOLDEN_PATH.read_text())
    assert name in goldens[section], (
        f"no golden for {section}/{name}; regenerate (module docstring)")
    assert _current()[section][name] == goldens[section][name], (
        f"{name}: the bytes of its export (or the identity of the "
        "config) moved")


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(_current(), indent=2, sort_keys=True)
                           + "\n")
