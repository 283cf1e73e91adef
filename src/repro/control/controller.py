"""The reconciliation loop: observe -> diagnose -> remediate.

The :class:`Controller` is a simulation process, exactly like the chaos
controller it mirrors: where chaos *injects* failures, this loop
*answers* them.  Every ``tick_s`` of simulated time it

1. **observes** — reads the sampled telemetry window that just closed
   (the :class:`~repro.metrics.sampler.MetricsSampler` shares the tick
   cadence and is started first, so its snapshot lands before the
   controller wakes at the same timestamp);
2. **diagnoses** — runs the saturation analyzer over the window and
   reduces it to the machine-readable
   :class:`~repro.metrics.saturation.SaturationVerdict`, plus the
   store's admission-shed rate as a secondary overload signal and a
   liveness sweep for crashed nodes;
3. **remediates** — at most one topology action at a time, through
   :class:`~repro.control.topology.ClusterTopology`, under the
   :class:`~repro.control.policy.ControlPolicy` guardrails (sustained
   thresholds, dead band, cooldown, fleet floor/ceiling).

Everything is driven by simulated time and sampled counters, so a fixed
seed reproduces the same decision log byte for byte.
"""

from __future__ import annotations

from repro.control.policy import ControlDecision, ControlPolicy
from repro.control.topology import ClusterTopology
from repro.metrics.saturation import analyze_saturation
from repro.metrics.timeseries import WindowedSeries

__all__ = ["Controller"]


class Controller:
    """Closes the telemetry -> topology loop for one deployed store."""

    def __init__(self, topology: ClusterTopology, series: WindowedSeries,
                 policy: ControlPolicy):
        self.topology = topology
        self.policy = policy
        self.series = series
        #: The audit trail: every action taken, in decision order.
        self.decisions: list[ControlDecision] = []
        self.ticks = 0
        self._high = 0
        self._low = 0
        self._cooldown_until = 0.0
        self._busy = False
        self._replacing: set[str] = set()
        self._last_shed = topology.store.total_shed()
        self._stopped = False
        self._process = None

    @property
    def cluster(self):
        return self.topology.cluster

    @property
    def sim(self):
        return self.topology.cluster.sim

    def start(self):
        """Spawn the reconciliation process."""
        if self._process is None:
            self._process = self.sim.process(self._run(),
                                             name="control-loop")
        return self._process

    def stop(self) -> None:
        """Stop reconciling at the next wake-up."""
        self._stopped = True

    # -- the loop ------------------------------------------------------------

    def _run(self):
        policy = self.policy
        while not self._stopped:
            yield self.sim.timeout(policy.tick_s)
            if self._stopped:
                break
            self._tick()
            self.ticks += 1

    def _tick(self) -> None:
        sim = self.sim
        now = sim.now
        policy = self.policy
        self._sweep_failures(now)

        # Diagnose the window that just closed.
        report = analyze_saturation(self.series, self.cluster,
                                    now - policy.tick_s, now,
                                    self.topology.store.name)
        verdict = report.summary
        shed_total = self.topology.store.total_shed()
        shed_rate = (shed_total - self._last_shed) / policy.tick_s
        self._last_shed = shed_total

        shedding = (policy.shed_rate_per_s is not None
                    and shed_rate >= policy.shed_rate_per_s)
        if verdict.pressure >= policy.scale_out_pressure or shedding:
            self._high += 1
            self._low = 0
        elif verdict.pressure <= policy.scale_in_pressure and shed_rate == 0:
            self._low += 1
            self._high = 0
        else:
            self._high = self._low = 0

        # A pending replacement freezes scaling: a down node both skews
        # the pressure means and is itself the remediation in flight.
        if self._replacing or self._busy or now < self._cooldown_until:
            return

        cluster = self.cluster
        ceiling = min(policy.max_nodes, cluster.spec.max_nodes)
        if self._high >= policy.sustain_ticks and cluster.n_active < ceiling:
            reason = (f"shed rate {shed_rate:.1f}/s over budget"
                      if shedding and verdict.pressure
                      < policy.scale_out_pressure else
                      f"sustained {verdict.bottleneck} pressure "
                      f"{verdict.pressure:.2f} >= "
                      f"{policy.scale_out_pressure:.2f} "
                      f"for {self._high} ticks")
            self._decide("scale_out", cluster.next_server_name, reason,
                         verdict, cluster.n_active + 1)
            self._launch(self.topology.scale_out(policy.provision_delay_s))
        elif (self._low >= policy.sustain_ticks
              and cluster.n_active > policy.min_nodes):
            victim = self.topology.youngest_live_member()
            if victim is None:
                return
            reason = (f"sustained {verdict.bottleneck} pressure "
                      f"{verdict.pressure:.2f} <= "
                      f"{policy.scale_in_pressure:.2f} "
                      f"for {self._low} ticks")
            self._decide("scale_in", victim.name, reason, verdict,
                         cluster.n_active - 1)
            self._launch(self.topology.scale_in(victim))

    def _sweep_failures(self, now: float) -> None:
        """Diagnose crashed (not retired) members; schedule replacement."""
        policy = self.policy
        for index in self.topology.store.members():
            node = self.cluster.servers[index]
            if node.up or node.retired or node.name in self._replacing:
                continue
            self._replacing.add(node.name)
            self.decisions.append(ControlDecision(
                t=now, action="replace", node=node.name,
                reason=f"node {node.name} is down and not retired",
                pressure=0.0, bottleneck="liveness",
                n_active=self.cluster.n_active))
            self.sim.process(self._replace(node),
                             name=f"control-replace:{node.name}")

    def _replace(self, node):
        policy = self.policy
        yield self.sim.timeout(policy.replace_grace_s)
        yield from self.topology.replace(node, policy.provision_delay_s)
        self._replacing.discard(node.name)
        self._cooldown_until = self.sim.now + policy.cooldown_s

    def _decide(self, action: str, node: str, reason: str, verdict,
                n_active: int) -> None:
        self.decisions.append(ControlDecision(
            t=self.sim.now, action=action, node=node, reason=reason,
            pressure=verdict.pressure, bottleneck=verdict.bottleneck,
            n_active=n_active))
        self._high = self._low = 0

    def _launch(self, action) -> None:
        self._busy = True
        self.sim.process(self._supervise(action), name="control-action")

    def _supervise(self, action):
        try:
            yield from action
        finally:
            self._busy = False
            self._cooldown_until = self.sim.now + self.policy.cooldown_s

    # -- export --------------------------------------------------------------

    def decision_log(self) -> list:
        """The JSON-ready decision log (stable order and key layout)."""
        return [decision.to_dict() for decision in self.decisions]
