"""Open-loop goodput measurement: offered load vs. useful work.

The paper's YCSB harness is *closed-loop*: a fixed set of synchronous
threads each wait for their previous operation, so offered load drops
automatically when the cluster slows — congestion collapse is invisible
by construction.  Real APM agents are *open-loop*: metric insertions
arrive on a wall-clock schedule whether or not the store keeps up
(Section 2's 11k+ inserts/s per monitored system), and a saturated
cluster faces unbounded queue growth.

This module provides that missing harness:

* :func:`run_overload_point` drives one store at a fixed offered rate
  with deterministic fixed-interval arrivals, each operation running as
  its own simulated process, and reports *goodput* — operations that
  succeeded within the SLO — plus rejection/expiry/queue-depth evidence;
* :func:`find_saturation` locates the peak sustainable closed-loop
  throughput (the sustained floor from ``repro.metrics`` when telemetry
  is on, the plain measured throughput otherwise);
* :func:`goodput_sweep` sweeps offered load past the saturation point
  (e.g. to 2x) with the overload protections on and off, producing the
  protected-vs-unprotected comparison the overload benchmark asserts on.

Everything runs on simulated time with seeded randomness only, so a
fixed configuration yields byte-identical sweep payloads.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Optional

from repro.overload.shapes import ArrivalShape
from repro.ycsb.runner import BenchmarkConfig, Deployment, run_config
from repro.ycsb.stats import ERROR_KINDS

__all__ = ["OverloadPoint", "OverloadSweep", "SaturationEstimate",
           "find_saturation", "goodput_sweep", "resolve_slo_s",
           "run_overload_point", "_OpenLoopRun"]

#: Default SLO when the configuration carries no deadline: the paper's
#: latency figures put healthy operations well under this bound.
DEFAULT_SLO_S = 0.25

#: Simulated seconds between the queue monitor's depth samples.
QUEUE_SAMPLE_S = 0.02


def resolve_slo_s(config: BenchmarkConfig,
                  slo_s: Optional[float] = None) -> float:
    """The latency bound goodput counts against: ``slo_s`` when given,
    else the overload policy's deadline, else :data:`DEFAULT_SLO_S`."""
    if slo_s is not None:
        return slo_s
    overload = config.overload
    if overload is not None and overload.deadline_s is not None:
        return overload.deadline_s
    return DEFAULT_SLO_S


@dataclass(frozen=True)
class OverloadPoint:
    """One open-loop measurement at a fixed offered rate."""

    store: str
    workload: str
    n_nodes: int
    protected: bool
    offered_rate: float
    duration_s: float
    slo_s: float
    #: Operations that arrived inside the measurement window.
    arrivals: int
    #: In-window arrivals that succeeded within the SLO.
    in_slo: int
    #: In-window arrivals that succeeded at all.
    succeeded: int
    #: In-window arrivals that failed, by kind (see ``ERROR_KINDS``).
    error_kinds: dict
    #: Useful work per second: ``in_slo / duration_s``.
    goodput: float
    #: Mean latency of completed in-window operations (seconds).
    mean_latency_s: float
    #: Deepest backlog the queue monitor observed (channels + node CPUs).
    max_queue_depth: int
    #: Operations the store refused at admission (queues + gates + shed).
    shed: int
    #: Arrival-shape projection (``None`` for constant-rate arrivals).
    shape: Optional[dict] = None

    def to_dict(self) -> dict:
        """A JSON-ready projection (stable key order via sort_keys)."""
        return asdict(self)


@dataclass(frozen=True)
class SaturationEstimate:
    """Peak sustainable throughput for one configuration."""

    #: The rate the sweep multiplies: the open-loop capacity when the
    #: config carries an overload policy, else the sustained floor when telemetry
    #: verified one, else the measured closed-loop throughput.
    rate: float
    #: Raw closed-loop throughput of the probe run.
    throughput: float
    #: Sustained floor/peak from ``repro.metrics`` (``None`` without
    #: telemetry).
    floor: Optional[float]
    peak: Optional[float]
    #: Open-loop goodput capacity (``None`` without an overload policy).
    open_loop: Optional[float] = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class OverloadSweep:
    """A protected-vs-unprotected goodput sweep over offered load."""

    config: BenchmarkConfig
    saturation: SaturationEstimate
    multipliers: tuple
    protected: list = field(default_factory=list)
    unprotected: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "saturation": self.saturation.to_dict(),
            "multipliers": list(self.multipliers),
            "protected": [p.to_dict() for p in self.protected],
            "unprotected": [p.to_dict() for p in self.unprotected],
        }


class _OpenLoopRun:
    """The open-loop driver: one arrival process over a deployment.

    ``watchers`` takes passive observers, as the closed loop's
    :class:`~repro.ycsb.client.ClientThread` does: each completed
    operation is offered to every watcher's ``note_op`` once, with
    ``measured`` set by its arrival time.
    """

    def __init__(self, config: BenchmarkConfig, offered_rate: float,
                 duration_s: float, warmup_s: float, slo_s: float,
                 shape: Optional[ArrivalShape] = None,
                 timeline_s: Optional[float] = None):
        if offered_rate <= 0:
            raise ValueError(f"offered_rate must be positive, "
                             f"got {offered_rate}")
        self.config = config
        self.offered_rate = offered_rate
        self.duration_s = duration_s
        self.warmup_s = warmup_s
        self.slo_s = slo_s
        self.shape = shape
        self.timeline_s = timeline_s
        # Per-timeline-window tallies, keyed by int(arrival / timeline_s).
        self._tl_arrivals: dict = {}
        self._tl_in_slo: dict = {}

        #: The deployed store; harnesses riding on this driver start
        #: their telemetry from it (``start_telemetry``) before ``run``.
        self.deployment = deployment = Deployment(config)
        self.cluster = deployment.cluster
        self.store = deployment.store
        self.sim = deployment.sim
        self.chaos = deployment.chaos
        self._op_rng = deployment.rngs.stream("openloop-ops")
        self.chooser = deployment.chooser(
            deployment.rngs.stream("openloop-keys"))
        self.sessions = deployment.sessions()
        #: Passive observers (an obs layer, an audit recorder, ...).
        self.watchers: list = []

        # Window accounting (arrival-indexed).
        self.window_arrivals = 0
        self.in_slo = 0
        self.succeeded = 0
        self.error_kinds = {kind: 0 for kind in ERROR_KINDS}
        self.latency_total = 0.0
        self.latency_count = 0
        self.max_queue_depth = 0
        self._draining = False

    # -- processes -----------------------------------------------------------

    def _queue_depth(self) -> int:
        depth = self.store.overload_queue_depth()
        for node in self.cluster.servers:
            depth += node.cpus.queue_length
        return int(depth)

    def _monitor(self):
        while not self._draining:
            depth = self._queue_depth()
            if depth > self.max_queue_depth:
                self.max_queue_depth = depth
            yield self.sim.timeout(QUEUE_SAMPLE_S)

    def _one_op(self, index: int, measured: bool, op, key, row,
                scan_length):
        sim = self.sim
        session = self.sessions[index % len(self.sessions)]
        arrival = sim.now
        tracer = sim.tracer
        trace = None
        if tracer is not None and measured and tracer.should_sample():
            trace = tracer.begin(op.value, key, session.index)
        error, kind, __ = yield from self.deployment.attempt(
            session, op, key, row, scan_length, arrival)
        if trace is not None:
            tracer.complete(trace, error, kind)
        for watcher in self.watchers:
            watcher.note_op(session.index, op.value, key, arrival, sim.now,
                            error, kind, trace, measured)
        if not measured:
            return
        latency = sim.now - arrival
        self.latency_total += latency
        self.latency_count += 1
        bucket = (None if self.timeline_s is None
                  else int(arrival / self.timeline_s))
        if bucket is not None:
            self._tl_arrivals[bucket] = self._tl_arrivals.get(bucket, 0) + 1
        if error:
            self.error_kinds[kind or "store"] += 1
        else:
            self.succeeded += 1
            if latency <= self.slo_s:
                self.in_slo += 1
                if bucket is not None:
                    self._tl_in_slo[bucket] = (
                        self._tl_in_slo.get(bucket, 0) + 1)

    def _arrive(self, index: int):
        """One arrival: draw its operation, in arrival order, and launch
        it as its own process whether or not earlier ones finished."""
        measured = self.sim.now >= self.warmup_s
        if measured:
            self.window_arrivals += 1
        drawn = self.deployment.draw(self._op_rng, self.chooser)
        return self.sim.process(self._one_op(index, measured, *drawn),
                                name=f"open-op-{index}")

    # Two arrival loops, one termination rule each: a count fixed up
    # front at constant rate, the clock under a shape.  Merging them
    # changes the arrival count by float rounding.

    def _arrivals(self):
        interval = 1.0 / self.offered_rate
        total = int(round((self.warmup_s + self.duration_s)
                          * self.offered_rate))
        procs = []
        for i in range(total):
            procs.append(self._arrive(i))
            yield self.sim.timeout(interval)
        # Let every in-flight operation drain before the run ends.
        yield self.sim.all_of(procs)
        self._draining = True

    def _shaped_arrivals(self):
        """Arrivals spaced by the shape's instantaneous rate."""
        end = self.warmup_s + self.duration_s
        procs = []
        while self.sim.now < end:
            arrival = self.sim.now
            procs.append(self._arrive(len(procs)))
            rate = self.shape.rate_at(arrival, self.offered_rate)
            yield self.sim.timeout(1.0 / max(rate, 1e-9))
        yield self.sim.all_of(procs)
        self._draining = True

    def timeline(self) -> list:
        """Per-window arrival/in-SLO tallies (needs ``timeline_s``).

        Windows are indexed by arrival time; the list is sorted and
        JSON-ready, the availability evidence for recovery assertions.
        """
        if self.timeline_s is None:
            raise ValueError("run was built without timeline_s")
        buckets = sorted(self._tl_arrivals)
        return [
            {
                "t0": bucket * self.timeline_s,
                "t1": (bucket + 1) * self.timeline_s,
                "arrivals": self._tl_arrivals[bucket],
                "in_slo": self._tl_in_slo.get(bucket, 0),
            }
            for bucket in buckets
        ]

    def run(self) -> OverloadPoint:
        self.chaos.start()
        self.sim.process(self._monitor(), name="queue-monitor")
        arrivals = (self._arrivals() if self.shape is None
                    else self._shaped_arrivals())
        driver = self.sim.process(arrivals, name="open-arrivals")
        self.sim.run(until=driver)
        config = self.config
        mean_latency = (self.latency_total / self.latency_count
                        if self.latency_count else 0.0)
        return OverloadPoint(
            store=config.store,
            workload=config.workload.name,
            n_nodes=config.n_nodes,
            protected=config.overload is not None,
            offered_rate=self.offered_rate,
            duration_s=self.duration_s,
            slo_s=self.slo_s,
            arrivals=self.window_arrivals,
            in_slo=self.in_slo,
            succeeded=self.succeeded,
            error_kinds={k: v for k, v in self.error_kinds.items() if v},
            goodput=self.in_slo / self.duration_s,
            mean_latency_s=mean_latency,
            max_queue_depth=self.max_queue_depth,
            shed=self.store.total_shed(),
            shape=None if self.shape is None else self.shape.to_dict(),
        )


def run_overload_point(config: BenchmarkConfig, offered_rate: float, *,
                       duration_s: float = 3.0, warmup_s: float = 0.5,
                       slo_s: Optional[float] = None,
                       shape: Optional[ArrivalShape] = None) -> OverloadPoint:
    """Drive ``config``'s store open-loop at ``offered_rate`` ops/s.

    Arrivals are spaced exactly ``1 / offered_rate`` apart; each
    operation runs as its own process (with the configured overload
    protections, when ``config.overload`` is set) whether or not earlier
    operations have finished — offered load does not yield to
    congestion, unlike the closed-loop harness.  Goodput counts
    successes completing within ``slo_s`` among post-warmup arrivals.

    With ``shape`` (see :mod:`repro.overload.shapes`) the instantaneous
    rate is ``shape.rate_at(now, offered_rate)`` instead of constant —
    diurnal swings, flash crowds and load steps for provisioning
    studies.
    """
    run = _OpenLoopRun(config, offered_rate, duration_s, warmup_s,
                       resolve_slo_s(config, slo_s), shape=shape)
    return run.run()


def _refine_capacity(config: BenchmarkConfig, start_rate: float) -> float:
    """Open-loop goodput capacity, by up to five doublings of 0.3 s probes
    (after 0.1 s of warm-up) until saturation.

    The closed-loop estimate undershoots for stores whose client library
    caps concurrency (Voldemort's 4-connection pool, HBase's buffering
    clients): their closed-loop throughput is concurrency-bound, not
    capacity-bound.  Probing open-loop — doubling the offered rate until
    goodput falls behind it — measures what the servers can actually
    serve within the SLO.
    """
    rate = max(1.0, start_rate)
    achieved = 0.0
    for _ in range(6):
        point = run_overload_point(config, rate, duration_s=0.3,
                                   warmup_s=0.1)
        achieved = point.goodput
        if achieved < 0.9 * rate:
            break
        rate *= 2
    return max(achieved, 1.0)


def find_saturation(config: BenchmarkConfig, *, cache=None,
                    use_sustained: bool = True) -> SaturationEstimate:
    """Peak sustainable throughput for ``config``.

    Runs the closed-loop benchmark without overload protections; with
    ``use_sustained`` the run carries telemetry and the estimate is the
    sustained-throughput floor from ``repro.metrics`` (the rate the
    cluster holds across sub-windows, not just the average), otherwise
    the plain measured throughput.  With an overload policy on the
    config the closed-loop estimate seeds open-loop doubling probes that
    measure true service capacity — see :func:`_refine_capacity`.  ``cache`` is an optional
    :class:`~repro.analysis.cache.ResultCache`.
    """
    probe = replace(config, overload=None, target_throughput=None)
    if use_sustained and probe.metrics_interval_s is None:
        probe = replace(probe, metrics_interval_s=0.05)
    result = run_config(probe) if cache is None else cache.get(probe)
    floor = peak = None
    sustained = None if result.metrics is None else result.metrics.sustained
    if sustained is not None:
        floor, peak = sustained.floor, sustained.peak
    rate = floor if floor else result.throughput_ops
    open_loop = None
    if config.overload is not None:
        open_loop = _refine_capacity(config, rate)
        rate = open_loop
    return SaturationEstimate(rate=rate, throughput=result.throughput_ops,
                              floor=floor, peak=peak, open_loop=open_loop)


def goodput_sweep(config: BenchmarkConfig, *,
                  multipliers=(0.5, 1.0, 1.5, 2.0),
                  duration_s: float = 3.0, warmup_s: float = 0.5,
                  cache=None, use_sustained: bool = True,
                  include_unprotected: bool = True,
                  shape: Optional[ArrivalShape] = None) -> OverloadSweep:
    """Sweep offered load across ``multipliers`` x the saturation rate.

    ``config.overload`` must be set: each multiplier runs once with the
    policy (protected) and — unless ``include_unprotected`` is false —
    once with ``overload=None`` (the congestion-collapse baseline).
    With ``shape``, every point's arrivals follow the shape with the
    multiplied rate as its base.
    """
    if config.overload is None:
        raise ValueError("goodput_sweep needs config.overload set; "
                         "the unprotected baseline is derived from it")
    saturation = find_saturation(config, cache=cache,
                                 use_sustained=use_sustained)
    sweep = OverloadSweep(config=config, saturation=saturation,
                          multipliers=tuple(multipliers))
    for multiplier in sweep.multipliers:
        rate = max(1.0, multiplier * saturation.rate)
        sweep.protected.append(run_overload_point(
            config, rate, duration_s=duration_s, warmup_s=warmup_s,
            shape=shape))
        if include_unprotected:
            bare = replace(config, overload=None)
            sweep.unprotected.append(run_overload_point(
                bare, rate, duration_s=duration_s, warmup_s=warmup_s,
                slo_s=resolve_slo_s(config),
                shape=shape))
    return sweep
