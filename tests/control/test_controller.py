"""Behavioural tests for the reconciliation controller.

Each test runs a short seeded scenario through the harness and asserts
on the decision log and the end-state fleet — the controller's external
contract — rather than on its internal counters.
"""

import pytest

from repro.control import ControlPolicy, ControlScenario, run_control_scenario
from repro.overload import OverloadPolicy, StepShape
from repro.stores.base import ServiceProfile
from repro.ycsb.runner import BenchmarkConfig
from repro.ycsb.workload import WORKLOAD_R

SLO_S = 0.25
#: 2 ms/op -> one demo node saturates near 500 ops/s.
OP_CPU = 2e-3


def _config(n_nodes, seed=11):
    profile = ServiceProfile(read_cpu=OP_CPU, write_cpu=OP_CPU,
                             client_cpu=1e-5, dispatch_cpu=0.0)
    return BenchmarkConfig(
        store="redis", workload=WORKLOAD_R, n_nodes=n_nodes,
        records_per_node=1000, seed=seed,
        overload=OverloadPolicy(max_queue=32, deadline_s=SLO_S),
        store_kwargs={"profile": profile, "hash_algorithm": "balanced"},
    )


def _policy(**overrides):
    base = dict(tick_s=0.25, scale_out_pressure=0.8, scale_in_pressure=0.4,
                sustain_ticks=2, cooldown_s=0.5, min_nodes=1, max_nodes=3,
                replace_grace_s=0.25, provision_delay_s=0.1)
    base.update(overrides)
    return ControlPolicy(**base)


def test_sustained_pressure_scales_out():
    # 800 ops/s against one 500 ops/s node: pressure stays pinned.
    scenario = ControlScenario(
        config=_config(1), offered_rate=800.0, duration_s=4.0,
        policy=_policy(), slo_s=SLO_S)
    result = run_control_scenario(scenario)
    outs = [d for d in result.decisions if d["action"] == "scale_out"]
    assert outs, "no scale-out despite sustained saturation"
    # Sustain discipline: the first action needs >= sustain_ticks ticks.
    assert outs[0]["t"] >= 2 * 0.25
    assert result.n_active_end >= 2


def test_load_drop_scales_back_in():
    # Overloaded for 2s, then the load steps down to a trickle.
    scenario = ControlScenario(
        config=_config(1), offered_rate=800.0, duration_s=8.0,
        shape=StepShape(at_s=2.0, factor=0.1),
        policy=_policy(), slo_s=SLO_S)
    result = run_control_scenario(scenario)
    actions = [d["action"] for d in result.decisions]
    assert "scale_out" in actions
    assert "scale_in" in actions
    assert result.n_active_end == 1


def test_fleet_never_exceeds_policy_ceiling():
    scenario = ControlScenario(
        config=_config(1), offered_rate=2000.0, duration_s=5.0,
        policy=_policy(max_nodes=2), slo_s=SLO_S)
    result = run_control_scenario(scenario)
    assert result.n_active_end <= 2
    peak = max(d["n_active"] for d in result.decisions)
    # n_active is recorded at decision time, before the action lands.
    assert peak <= 2


def test_fleet_never_shrinks_below_floor():
    # A whisper of load on a 2-node minimum fleet: no scale-in decision
    # may take it below the floor.
    scenario = ControlScenario(
        config=_config(2), offered_rate=20.0, duration_s=4.0,
        policy=_policy(min_nodes=2, max_nodes=3), slo_s=SLO_S)
    result = run_control_scenario(scenario)
    assert result.n_active_end == 2
    assert not [d for d in result.decisions if d["action"] == "scale_in"]


def test_killed_node_is_replaced_after_grace():
    policy = _policy(min_nodes=2, max_nodes=2, scale_out_pressure=0.95,
                     scale_in_pressure=0.05)
    scenario = ControlScenario(
        config=_config(2), offered_rate=300.0, duration_s=5.0,
        policy=policy, slo_s=SLO_S, kill_at_s=1.5)
    result = run_control_scenario(scenario)
    replacements = [d for d in result.decisions if d["action"] == "replace"]
    assert len(replacements) == 1
    decision = replacements[0]
    assert decision["t"] >= 1.5
    assert decision["bottleneck"] == "liveness"
    assert result.n_active_end == 2


def test_decision_log_is_deterministic():
    scenario = ControlScenario(
        config=_config(1), offered_rate=800.0, duration_s=3.0,
        policy=_policy(), slo_s=SLO_S)
    first = run_control_scenario(scenario)
    second = run_control_scenario(scenario)
    assert first.to_dict() == second.to_dict()
    assert first.decisions == second.decisions


def test_static_arm_has_no_controller():
    scenario = ControlScenario(
        config=_config(2), offered_rate=400.0, duration_s=1.0,
        policy=None, slo_s=SLO_S)
    result = run_control_scenario(scenario)
    assert result.decisions == []
    assert result.ticks == 0
    assert result.node_seconds == pytest.approx(2.0)
