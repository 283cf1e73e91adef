"""Autoscaling scenario harness: open-loop load + control plane + chaos.

:func:`run_control_scenario` composes the pieces the control benchmark
and the ``apmbench control`` CLI share: an open-loop arrival process
(optionally shaped — diurnal, flash crowd, step), full cluster + store
telemetry sampled at the controller's tick, the reconciliation loop
actuating through :class:`~repro.control.topology.ClusterTopology`, and
an optional chaos kill the controller must heal without operator input.

A scenario with ``policy=None`` is the *static arm*: same load, same
store, fixed fleet, no controller — the peak-provisioned baseline the
autoscaled arm is judged against on SLO goodput and node-seconds.

Results are plain JSON-able records stamped with provenance
(:func:`repro.analysis.provenance.stamp`); no wall-clock state enters
the payload, so a fixed seed yields byte-identical exports.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from repro.analysis.provenance import stamp
from repro.control.controller import Controller
from repro.control.policy import ControlPolicy
from repro.control.topology import ClusterTopology
from repro.overload.shapes import ArrivalShape

__all__ = ["ControlRunResult", "ControlScenario", "run_control_scenario"]


@dataclass(frozen=True)
class ControlScenario:
    """Everything that defines one autoscaling (or static) run."""

    #: Store / workload / initial fleet / seed — the benchmark config.
    #: ``config.n_nodes`` is the *starting* fleet: the trough fleet for
    #: an autoscaled arm, the peak fleet for a static arm.
    config: object
    #: Peak offered rate (the shape's base rate), ops/s.
    offered_rate: float
    #: Offered-load horizon, simulated seconds.
    duration_s: float
    #: Arrival shape (``None`` = constant rate).
    shape: Optional[ArrivalShape] = None
    #: Control policy (``None`` = static arm, no controller).
    policy: Optional[ControlPolicy] = None
    #: Latency SLO for goodput accounting.
    slo_s: float = 0.25
    #: Availability-timeline bucket width.
    timeline_s: float = 0.5
    #: Chaos: crash one node at this simulated time (``None`` = off).
    kill_at_s: Optional[float] = None
    #: Victim name; ``None`` picks the highest-index live member.
    kill_node: Optional[str] = None

    def to_dict(self) -> dict:
        # Shallow, then the three nested records through their own
        # ``to_dict``: ``asdict`` would flatten the config field by field.
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload.update(
            config=self.config.to_dict(),
            shape=None if self.shape is None else self.shape.to_dict(),
            policy=None if self.policy is None else self.policy.to_dict())
        return payload


@dataclass(frozen=True)
class ControlRunResult:
    """One scenario's outcome: goodput, economy, and the audit trail."""

    scenario: ControlScenario
    #: The open-loop measurement (:class:`OverloadPoint` projection).
    point: dict
    #: Per-window availability evidence (arrivals / in-SLO).
    timeline: list
    #: The controller's decision log (empty for the static arm).
    decisions: list
    #: Provisioned node-seconds over the offered-load horizon.
    node_seconds: float
    #: Active fleet size when the run ended.
    n_active_end: int
    #: Rebalance traffic the control plane charged.
    bytes_moved: int
    moves_billed: int
    #: Reconciliation ticks executed (0 for the static arm).
    ticks: int

    @property
    def goodput(self) -> float:
        return self.point["goodput"]

    def to_dict(self) -> dict:
        """The JSON export, provenance-stamped and byte-deterministic."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["scenario"] = self.scenario.to_dict()
        return stamp(payload, self.scenario.config)


def _kill_process(run, scenario, topology):
    """Process: crash the victim node at the scheduled time."""
    yield run.sim.timeout(scenario.kill_at_s)
    if scenario.kill_node is not None:
        node = run.cluster.node(scenario.kill_node)
    else:
        node = topology.youngest_live_member()
        if node is None:
            return
    node.fail()
    run.store.on_node_down(node)


def run_control_scenario(scenario: ControlScenario) -> ControlRunResult:
    """Execute one scenario end to end on simulated time."""
    from repro.overload.openloop import _OpenLoopRun

    run = _OpenLoopRun(scenario.config, scenario.offered_rate,
                       scenario.duration_s, 0.0, scenario.slo_s,
                       shape=scenario.shape,
                       timeline_s=scenario.timeline_s)
    policy = scenario.policy
    registry = sampler = controller = None
    if policy is not None:
        # The sampler must start before the controller: at a shared
        # timestamp the earlier process runs first, so every tick reads
        # the window the sampler just closed.
        registry, sampler = run.deployment.start_telemetry(policy.tick_s)
    topology = ClusterTopology(run.cluster, run.store, registry)
    if policy is not None:
        controller = Controller(topology, sampler.series, policy)
        controller.start()
    if scenario.kill_at_s is not None:
        run.sim.process(_kill_process(run, scenario, topology),
                        name="chaos-kill")

    point = run.run()
    if sampler is not None:
        sampler.close()
    if controller is not None:
        controller.stop()
    # Bill node-seconds over the offered-load horizon only: the drain
    # tail after the last arrival differs between arms and is not load
    # the operator provisioned for.
    horizon = min(run.sim.now, scenario.duration_s)
    return ControlRunResult(
        scenario=scenario,
        point=point.to_dict(),
        timeline=run.timeline(),
        decisions=(controller.decision_log() if controller is not None
                   else []),
        node_seconds=topology.node_seconds(until=horizon),
        n_active_end=run.cluster.n_active,
        bytes_moved=topology.bytes_moved,
        moves_billed=topology.moves_billed,
        ticks=(controller.ticks if controller is not None else 0),
    )
