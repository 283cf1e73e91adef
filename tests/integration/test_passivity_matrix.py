"""Watching a run must not change it — for every overlay on every driver.

The overlays (head-sampled tracing, cluster telemetry, the observability
layer, the audit recorder) are passive by contract.  Each subsystem's own
suite checks that down to operation counts; here the contract is asserted
once, to the last histogram bucket, for every overlay x driver pair that
exists: the four overlays the closed-loop runner accepts, and on the
open-loop driver the one harness that rides on it (``run_obs_scenario``:
telemetry + obs layer + chaos) and an audit recorder among its watchers.
"""

from dataclasses import replace
from functools import lru_cache

import pytest

from repro.audit import HistoryRecorder
from repro.faults.schedule import FaultSchedule
from repro.obs import ObsPolicy, ObsScenario, default_slos, run_obs_scenario
from repro.orchestrator.serialize import histogram_to_dict
from repro.overload import OverloadPolicy
from repro.overload.openloop import (_OpenLoopRun, resolve_slo_s,
                                     run_overload_point)
from repro.sim.cluster import CLUSTER_M
from repro.ycsb.runner import BenchmarkConfig, run_config
from repro.ycsb.workload import WORKLOADS

SMALL_M = replace(CLUSTER_M, connections_per_node=4)
STORES = ("cassandra", "hbase", "mysql", "redis")
OBS_POLICY = ObsPolicy(slos=default_slos(latency_slo_s=0.05),
                       window_s=0.05, tick_s=0.05)

#: overlay name -> (config fields, ``run_config`` keyword arguments).
CLOSED_LOOP_OVERLAYS = {
    "trace": ({"trace_sample_every": 3}, lambda: {}),
    "metrics": ({"metrics_interval_s": 0.05}, lambda: {}),
    "obs": ({}, lambda: {"obs": OBS_POLICY}),
    "audit": ({}, lambda: {"audit": HistoryRecorder(sim=None)}),
}


def _config(store: str, **fields) -> BenchmarkConfig:
    return BenchmarkConfig(
        store=store, workload=WORKLOADS["RW"], n_nodes=2,
        cluster_spec=SMALL_M, records_per_node=400, measured_ops=400,
        warmup_ops=50, seed=9, **fields)


def _measured(config: BenchmarkConfig, **overlay) -> dict:
    result = run_config(config, **overlay)
    stats = result.stats
    return {
        "started_at": stats.started_at,
        "finished_at": stats.finished_at,
        "operations": stats.operations,
        "errors": stats.errors,
        "store_errors": result.store_errors,
        "histograms": {op.value: histogram_to_dict(histogram)
                       for op, histogram in stats.histograms.items()},
    }


@lru_cache(maxsize=None)
def _bare(store: str) -> dict:
    return _measured(_config(store))


@pytest.mark.parametrize("overlay", sorted(CLOSED_LOOP_OVERLAYS))
@pytest.mark.parametrize("store", STORES)
def test_closed_loop_overlay_is_passive(store, overlay):
    fields, kwargs = CLOSED_LOOP_OVERLAYS[overlay]
    assert _measured(_config(store, **fields), **kwargs()) == _bare(store)


def _open_loop_config(store: str) -> BenchmarkConfig:
    schedule = FaultSchedule().crash("server-1", at=0.3, restart_after=0.3)
    return _config(store, fault_schedule=schedule,
                   overload=OverloadPolicy(max_queue=32, deadline_s=0.05))


@pytest.mark.parametrize("store", STORES)
def test_open_loop_obs_harness_is_passive(store):
    config = _open_loop_config(store)
    scenario = ObsScenario(config=config, policy=OBS_POLICY,
                           offered_rate=600.0, duration_s=0.9, warmup_s=0.1)
    bare = run_overload_point(config, 600.0, duration_s=0.9, warmup_s=0.1)
    assert run_obs_scenario(scenario).point == bare.to_dict()


@pytest.mark.parametrize("store", STORES)
def test_open_loop_audit_is_passive(store):
    config = _open_loop_config(store)
    run = _OpenLoopRun(config, 600.0, 0.9, 0.1, resolve_slo_s(config))
    recorder = HistoryRecorder(sim=None)
    run.watchers.append(recorder)
    bare = run_overload_point(config, 600.0, duration_s=0.9, warmup_s=0.1)
    assert run.run() == bare
    assert len(recorder) > 0
