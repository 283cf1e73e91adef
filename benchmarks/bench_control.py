"""Extension: autoscaling + self-healing vs static peak provisioning.

The paper provisions every experiment statically, yet Section 2's APM
workload has a strong daily cycle — the fleet bought for the morning
peak idles through the night.  This bench closes the loop the paper
leaves open: the ``repro.control`` reconciliation controller reads the
metrics subsystem's saturation verdicts and grows/shrinks the cluster
(with rebalance data movement charged to the simulated disks and NICs),
and replaces chaos-killed nodes without operator input.

Claims asserted:

* on a diurnal trace the autoscaled cluster holds >= 95% of the
  statically peak-provisioned cluster's SLO goodput while spending
  <= 75% of its node-seconds;
* a chaos-killed node is detected, replaced after the policy's grace,
  and availability recovers to its pre-kill level;
* the whole run — decision log included — is byte-deterministic: two
  runs of the same seeded scenario export identical JSON.
"""

from repro.control import (ControlPolicy, ControlScenario,
                           run_control_scenario)
from repro.overload import DiurnalShape, OverloadPolicy
from repro.stores.base import ServiceProfile
from repro.ycsb.runner import BenchmarkConfig
from repro.ycsb.workload import WORKLOAD_R

#: Peak (base) offered rate of the diurnal cycle and the SLO both arms
#: are graded on.  One demo node saturates near 1/OP_CPU = 500 ops/s,
#: so the 1,600 ops/s peak needs the full 4-node static fleet.
PEAK_RATE = 1600.0
SLO_S = 0.25
OP_CPU = 2e-3
PERIOD_S = 20.0

POLICY = ControlPolicy(
    tick_s=0.25, scale_out_pressure=0.8, scale_in_pressure=0.55,
    sustain_ticks=2, cooldown_s=0.75, min_nodes=1, max_nodes=4,
    replace_grace_s=0.5, provision_delay_s=0.25,
)


def _config(n_nodes: int, seed: int = 42) -> BenchmarkConfig:
    profile = ServiceProfile(read_cpu=OP_CPU, write_cpu=OP_CPU,
                             client_cpu=1e-5, dispatch_cpu=0.0)
    return BenchmarkConfig(
        store="redis", workload=WORKLOAD_R, n_nodes=n_nodes,
        records_per_node=2000, seed=seed,
        overload=OverloadPolicy(max_queue=32, deadline_s=SLO_S),
        store_kwargs={"profile": profile, "hash_algorithm": "balanced"},
    )


def _diurnal_scenario(policy, n_nodes: int) -> ControlScenario:
    return ControlScenario(
        config=_config(n_nodes),
        offered_rate=PEAK_RATE, duration_s=PERIOD_S,
        shape=DiurnalShape(period_s=PERIOD_S, trough_fraction=0.25),
        policy=policy, slo_s=SLO_S, timeline_s=0.5,
    )


def test_diurnal_autoscaling_beats_static_provisioning(benchmark):
    """One diurnal cycle: >= 95% of static SLO goodput, <= 75% of the
    node-seconds, and a byte-identical export under the same seed."""

    def run_arms():
        return (run_control_scenario(_diurnal_scenario(POLICY, 1)),
                run_control_scenario(_diurnal_scenario(None, 4)),
                run_control_scenario(_diurnal_scenario(POLICY, 1)))

    auto, static, auto_again = benchmark.pedantic(run_arms, rounds=1,
                                                  iterations=1)
    print()
    print(f"autoscaled: goodput {auto.goodput:8,.1f} ops/s  "
          f"node-s {auto.node_seconds:6.1f}  "
          f"decisions {len(auto.decisions)}  "
          f"moved {auto.bytes_moved / 1e6:.2f} MB")
    print(f"static:     goodput {static.goodput:8,.1f} ops/s  "
          f"node-s {static.node_seconds:6.1f}")
    for decision in auto.decisions:
        print(f"  t={decision['t']:6.2f}s {decision['action']:<10} "
              f"{decision['node']:<10} {decision['reason']}")

    assert static.goodput > 0
    goodput_ratio = auto.goodput / static.goodput
    economy_ratio = auto.node_seconds / static.node_seconds
    print(f"goodput ratio {goodput_ratio:.1%}, "
          f"node-seconds ratio {economy_ratio:.1%}")
    assert goodput_ratio >= 0.95, (
        f"autoscaled goodput {goodput_ratio:.1%} of static (< 95%)")
    assert economy_ratio <= 0.75, (
        f"autoscaled node-seconds {economy_ratio:.1%} of static (> 75%)")
    # The controller actually acted, in both directions, and the store
    # paid real rebalance traffic for it.
    actions = {decision["action"] for decision in auto.decisions}
    assert "scale_out" in actions and "scale_in" in actions
    assert auto.bytes_moved > 0
    # Determinism: decision log and full export, byte for byte.
    assert auto_again.to_dict() == auto.to_dict()


def test_chaos_kill_self_heals(benchmark):
    """A killed node is replaced without operator input and availability
    recovers to its pre-kill level."""
    kill_at = 4.0
    policy = ControlPolicy(
        tick_s=0.25, scale_out_pressure=0.9, scale_in_pressure=0.3,
        sustain_ticks=3, cooldown_s=1.0, min_nodes=3, max_nodes=4,
        replace_grace_s=0.5, provision_delay_s=0.25,
    )
    scenario = ControlScenario(
        config=_config(3), offered_rate=900.0, duration_s=12.0,
        policy=policy, slo_s=SLO_S, timeline_s=0.5, kill_at_s=kill_at,
    )

    result = benchmark.pedantic(run_control_scenario, args=(scenario,),
                                rounds=1, iterations=1)
    print()
    for window in result.timeline:
        availability = (window["in_slo"] / window["arrivals"]
                        if window["arrivals"] else 0.0)
        print(f"  [{window['t0']:5.1f}s, {window['t1']:5.1f}s) "
              f"availability {availability:6.1%}")

    replacements = [decision for decision in result.decisions
                    if decision["action"] == "replace"]
    assert replacements, "controller never replaced the killed node"
    assert replacements[0]["t"] >= kill_at

    def availability(window) -> float:
        return (window["in_slo"] / window["arrivals"]
                if window["arrivals"] else 0.0)

    before = [availability(w) for w in result.timeline
              if w["t1"] <= kill_at]
    dip = [availability(w) for w in result.timeline
           if kill_at <= w["t0"] < kill_at + 1.0]
    tail = [availability(w) for w in result.timeline
            if w["t0"] >= kill_at + 3.0]
    pre_kill = sum(before) / len(before)
    recovered = sum(tail) / len(tail)
    assert min(dip) < 0.95 * pre_kill, "the kill left no visible dip"
    assert recovered >= 0.99 * pre_kill, (
        f"availability recovered to {recovered:.1%} of the pre-kill "
        f"{pre_kill:.1%}")
    # The fleet is whole again: the replacement recovered in slot.
    assert result.n_active_end == 3
