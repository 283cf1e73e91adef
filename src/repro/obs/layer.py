"""The composition hub: one object wiring SLOs, exemplars, tail
sampling and the flight recorder into a running benchmark.

:class:`ObsLayer` is a watcher of a run.  Built over a deployment's
simulator and chaos controller, it attaches itself: its tail sampler
becomes the simulator's tracer, chaos actions and node lifecycle land in
its flight recorder, and its SLO engine starts.  Each completed
operation reaches it through one :meth:`note_op` call (from the
closed-loop :class:`~repro.ycsb.client.ClientThread` or the open-loop
:class:`~repro.overload.openloop._OpenLoopRun`); a measured one is
fanned out to SLO classification, per-op latency histograms (when a
metrics registry is attached), exemplar retention for *kept* traces, and
flight-recorder entries for errors and slow operations.  Because only
kept traces are offered as exemplars, every trace ID an alert or an
exported histogram references resolves to a retained span tree.

The layer is not free: with any policy, SLOs or none, its tail sampler
opens a span tree for every candidate operation.  The fast path of an
observability-free run is not building one (``obs=None``): then no
tracer is attached and the drivers have no watcher to call.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.exemplars import ExemplarStore
from repro.obs.policy import ObsPolicy
from repro.obs.recorder import FlightRecorder
from repro.obs.slo import SLOEngine
from repro.obs.tailsample import TailSampler

__all__ = ["ObsLayer"]


class ObsLayer:
    """Everything the observability tentpole attaches to one run."""

    def __init__(self, sim, policy: ObsPolicy, chaos, registry=None,
                 candidate_every: Optional[int] = None):
        self.sim = sim
        self.policy = policy
        self.registry = registry
        self.recorder = FlightRecorder(
            sim, capacity=policy.recorder_capacity,
            max_dumps=policy.recorder_max_dumps,
            min_gap_s=policy.recorder_min_gap_s)
        self.exemplars = ExemplarStore(
            window_s=policy.window_s,
            per_bucket=policy.exemplars_per_bucket,
            per_violation=policy.exemplars_per_violation)
        self.engine = SLOEngine(sim, policy, recorder=self.recorder,
                                exemplars=self.exemplars)
        self.slow_threshold_s = policy.slow_threshold()
        self.tracer = TailSampler(
            sim, self.slow_threshold_s,
            keep_budget=policy.tail_keep_budget,
            baseline_every=policy.tail_baseline_every,
            candidate_every=(candidate_every if candidate_every is not None
                             else policy.candidate_every))
        self.ops_observed = 0
        chaos.recorder = self.recorder
        chaos.subscribe(self)
        self.engine.start()

    # -- chaos listener hooks ------------------------------------------------

    def on_node_down(self, node) -> None:
        self.recorder.record("node-down", node=node.name)
        self.recorder.dump("node-failure", reason=f"{node.name} went down")

    def on_node_up(self, node) -> None:
        self.recorder.record("node-up", node=node.name)

    # -- the per-operation hook ----------------------------------------------

    def note_op(self, session: int, op: str, key: str, t_invoke: float,
                t_ack: float, error: bool, kind: Optional[str], trace,
                measured: bool) -> None:
        """The watcher hook: fold a measured operation's outcome into
        every collector (warm-up operations are ignored)."""
        if not measured:
            return
        latency_s = t_ack - t_invoke
        self.ops_observed += 1
        violated = self.engine.note_op(t_ack, op, latency_s, error, kind)
        if self.registry is not None:
            self.registry.histogram(
                "op_latency", window_s=self.policy.window_s,
                op=op).observe(latency_s)
        kept = trace is not None and trace.keep_reason is not None
        trace_id = trace.trace_id if kept else None
        if kept:
            self.exemplars.offer(t_ack, op, latency_s, trace.trace_id)
            for slo_name in violated:
                self.exemplars.offer_violation(t_ack, slo_name,
                                               trace.trace_id)
        if error:
            self.recorder.record("op-error", op=op,
                                 error_kind=kind or "store",
                                 latency_s=latency_s, trace_id=trace_id)
        elif latency_s >= self.slow_threshold_s:
            self.recorder.record("op-slow", op=op, latency_s=latency_s,
                                 trace_id=trace_id)

    def note_failure(self, exc: BaseException) -> None:
        """Record a simulation error and force a postmortem dump."""
        self.recorder.record("simulation-error",
                             error=type(exc).__name__, detail=str(exc))
        self.recorder.dump("simulation-error", reason=str(exc))

    def close(self) -> None:
        """End-of-run: final burn-rate evaluation over the last window."""
        self.engine.close()

    # -- export --------------------------------------------------------------

    def to_payload(self) -> dict:
        """The JSON-ready observability bundle for one run."""
        return {
            "policy": self.policy.to_dict(),
            "ops_observed": self.ops_observed,
            "slo": self.engine.to_payload(),
            "exemplars": self.exemplars.to_payload(),
            "tail_sampling": self.tracer.stats(),
            "flight_recorder": self.recorder.to_payload(),
        }
