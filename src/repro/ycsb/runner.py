"""End-to-end benchmark execution.

``run_benchmark`` reproduces the paper's methodology (Section 3) on the
simulated substrate:

1. provision a fresh cluster (Cluster M or D profile) at the requested
   node count — every run starts from a clean install, as the paper's
   scripts did;
2. load the data set (10 M records per node in the paper; scaled down by
   default — the hardware profile's RAM scales by the same factor so the
   memory-bound/disk-bound regime is preserved);
3. open the configured number of client connections (128 per server node
   on Cluster M, fewer where a store's client library forced it);
4. run the workload closed-loop at maximum throughput (or bounded by a
   target rate for the Figure 15/16 experiments) and report throughput
   plus per-operation latencies over the measurement window.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import (asdict, dataclass, field, fields, is_dataclass,
                         replace)
from typing import Any, Optional

from repro.faults.availability import AvailabilityTimeline
from repro.faults.chaos import ChaosController
from repro.faults.schedule import FaultSchedule
from repro.metrics import (MetricsRegistry, MetricsReport, MetricsSampler,
                           analyze_saturation, instrument_cluster,
                           verify_sustained)
from repro.overload.budget import CircuitBreaker, RetryBudget
from repro.overload.policy import OverloadPolicy
from repro.sim.cluster import CLUSTER_M, Cluster, ClusterSpec, NodeSpec
from repro.sim.disk import DiskSpec
from repro.sim.network import NetworkSpec
from repro.sim.rng import RngRegistry
from repro.storage.record import APM_SCHEMA
from repro.stores.base import OpType, RetryPolicy, Store
from repro.stores.registry import store_class
from repro.trace import Tracer
from repro.ycsb.client import (ClientThread, RunControl, attempt_op,
                              draw_operation)
from repro.ycsb.generator import KeySequence, generate_records, make_chooser
from repro.ycsb.stats import LatencyHistogram, RunStats
from repro.ycsb.throttle import Throttle
from repro.ycsb.workload import Workload

__all__ = ["BenchmarkConfig", "BenchmarkResult", "Deployment",
           "UnportableConfigError", "run_benchmark", "run_config",
           "scaled_spec"]

#: Records per node the paper loads on Cluster M (Section 3).
PAPER_RECORDS_PER_NODE = 10_000_000

#: Schema version of :meth:`BenchmarkConfig.to_dict` payloads.
CONFIG_FORMAT = 1

#: The :class:`BenchmarkConfig` fields whose values have no JSON form:
#: ``to_dict`` carries a fingerprint of them (:func:`_opaque`), enough to
#: key and hash the config but not to rebuild it in another process.
OPAQUE_FIELDS = frozenset({"fault_schedule", "retry"})


class UnportableConfigError(ValueError):
    """A configuration that cannot be rebuilt from its dict form.

    Raised by :meth:`BenchmarkConfig.from_dict` when the payload carries
    opaque (fingerprint-only) entries — a fault schedule, a retry policy,
    or non-JSON ``store_kwargs`` values.  Such configs still *hash* and
    *key* deterministically; they just cannot cross a process boundary.
    """


def _opaque(value: Any) -> dict:
    """Reduce a non-JSON value to a stable fingerprint marker."""
    from repro.analysis.provenance import config_fingerprint

    return {"__opaque__": config_fingerprint(value)}


def _portable_value(value: Any) -> Any:
    """A JSON-ready projection of ``value``; opaque where it must be."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _portable_value(v) for k, v in sorted(
            value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_portable_value(v) for v in value]
    return _opaque(value)


def _contains_opaque(value: Any) -> bool:
    if isinstance(value, dict):
        if "__opaque__" in value:
            return True
        return any(_contains_opaque(v) for v in value.values())
    if isinstance(value, list):
        return any(_contains_opaque(v) for v in value)
    return False


def scaled_spec(spec: ClusterSpec, records_per_node: int,
                paper_records_per_node: int) -> ClusterSpec:
    """Shrink node RAM in proportion to the scaled-down data set.

    The paper's regimes (Cluster M: data fits in memory; Cluster D: it
    does not) depend on the ratio of data to RAM.  Scaling both together
    preserves the regime while keeping the simulation tractable.
    """
    scale = records_per_node / paper_records_per_node
    if scale >= 1.0:
        return spec
    node = replace(spec.node,
                   ram_bytes=max(1 << 20, int(spec.node.ram_bytes * scale)))
    return replace(spec, node=node)


@dataclass(frozen=True)
class BenchmarkConfig:
    """Everything that defines one benchmark data point."""

    store: str
    workload: Workload
    n_nodes: int
    cluster_spec: ClusterSpec = CLUSTER_M
    records_per_node: int = 100_000
    paper_records_per_node: int = PAPER_RECORDS_PER_NODE
    measured_ops: int = 6000
    warmup_ops: int = 800
    seed: int = 42
    #: Bound the offered load (ops/s); ``None`` = maximum throughput.
    target_throughput: Optional[float] = None
    store_kwargs: dict = field(default_factory=dict)
    #: Chaos plan applied during the run (``None`` = fault-free).
    fault_schedule: Optional[FaultSchedule] = None
    #: Run for a fixed simulated time instead of a fixed operation count
    #: — the natural framing for chaos experiments, where the schedule is
    #: anchored to absolute times.
    duration_s: Optional[float] = None
    #: Bucket width of the availability timeline.
    availability_window_s: float = 0.25
    #: Override the store's default client retry policy.
    retry: Optional[RetryPolicy] = None
    #: Overload-resilience policy: bounded queues, deadlines, admission
    #: control and retry budgets (``None`` = the unprotected stack).
    overload: Optional[OverloadPolicy] = None
    #: Sample every Nth measured operation into a span trace
    #: (``None`` = tracing off).  Sampling is deterministic, so a fixed
    #: seed yields identical traces across runs.
    trace_sample_every: Optional[int] = None
    #: Cap on retained traces (oldest kept; later samples only counted).
    trace_max_traces: int = 2000
    #: Sampling interval of the metrics timeseries, in simulated seconds
    #: (``None`` = metrics off; the zero-cost fast path).
    metrics_interval_s: Optional[float] = None
    #: Sub-windows the sustained-throughput check splits the window into.
    sustained_subwindows: int = 4
    #: Max (peak - floor) / peak degradation still counted as sustained.
    sustained_tolerance: float = 0.25

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.records_per_node < 1:
            raise ValueError("records_per_node must be >= 1")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.availability_window_s <= 0:
            raise ValueError("availability_window_s must be positive")
        if (self.trace_sample_every is not None
                and self.trace_sample_every < 1):
            raise ValueError("trace_sample_every must be >= 1")
        if self.metrics_interval_s is not None and self.metrics_interval_s <= 0:
            raise ValueError("metrics_interval_s must be positive")
        if self.sustained_subwindows < 2:
            raise ValueError("sustained_subwindows must be >= 2")
        if not 0.0 <= self.sustained_tolerance <= 1.0:
            raise ValueError("sustained_tolerance must be in [0, 1]")

    # -- serialisation and content addressing -------------------------------
    #
    # The fields are named once, in the dataclass: ``to_dict`` and
    # ``from_dict`` iterate them, and the cache key (:meth:`content_key`),
    # the content hash (:meth:`content_hash`, the on-disk result store's
    # address) and the wire form every worker is rebuilt from all derive
    # from ``to_dict`` — a new field is in all of them by construction.

    def to_dict(self) -> dict:
        """A stable, JSON-ready projection of this configuration.

        Always succeeds: values that have no JSON form (a fault
        schedule, a retry policy, exotic ``store_kwargs``) are reduced
        to ``{"__opaque__": <fingerprint>}`` markers so the projection
        still identifies the config uniquely; such payloads are rejected
        by :meth:`from_dict` (see :meth:`is_portable`).
        """
        payload: dict = {"format": CONFIG_FORMAT}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and f.name in OPAQUE_FIELDS:
                payload[f.name] = _opaque(value)
            elif is_dataclass(value):
                payload[f.name] = asdict(value)
            else:
                payload[f.name] = _portable_value(value)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "BenchmarkConfig":
        """Rebuild a config from :meth:`to_dict` output.

        A key the payload lacks (written before the field existed)
        takes the field's default.  Raises
        :class:`UnportableConfigError` for payloads carrying opaque
        markers, and :class:`ValueError` for unknown formats.
        """
        if payload.get("format") != CONFIG_FORMAT:
            raise ValueError(
                f"unsupported config format {payload.get('format')!r} "
                f"(expected {CONFIG_FORMAT})")
        if _contains_opaque(payload):
            raise UnportableConfigError(
                "config payload carries opaque (non-serialisable) values; "
                "fault schedules and retry policies cannot cross a "
                "process boundary")
        kwargs = {f.name: payload[f.name] for f in fields(cls)
                  if f.name in payload}
        kwargs["workload"] = Workload(**kwargs["workload"])
        spec = kwargs.get("cluster_spec")
        if spec is not None:
            node = NodeSpec(**{**spec["node"],
                               "disk": DiskSpec(**spec["node"]["disk"])})
            kwargs["cluster_spec"] = ClusterSpec(**{
                **spec, "node": node,
                "network": NetworkSpec(**spec["network"])})
        if kwargs.get("overload") is not None:
            kwargs["overload"] = OverloadPolicy.from_dict(kwargs["overload"])
        return cls(**kwargs)

    @property
    def is_portable(self) -> bool:
        """Whether :meth:`from_dict` can rebuild this config."""
        return not _contains_opaque(self.to_dict())

    def content_key(self) -> str:
        """Canonical identity string (the cache key) of this config."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def content_hash(self) -> str:
        """sha256 hex digest of :meth:`content_key` (store address)."""
        return hashlib.sha256(self.content_key().encode()).hexdigest()

    def label(self) -> str:
        """A short human-readable point label for logs and progress."""
        parts = [f"{self.store}/{self.workload.name}/n{self.n_nodes}",
                 f"cluster={self.cluster_spec.name}"]
        if self.target_throughput is not None:
            parts.append(f"target={self.target_throughput:.0f}")
        return " ".join(parts)


@dataclass
class BenchmarkResult:
    """One benchmark data point: configuration plus measurements."""

    config: BenchmarkConfig
    stats: RunStats
    connections: int
    store_errors: int
    disk_bytes_per_server: list[int]
    #: ``(time, description)`` log of every fault the controller applied.
    fault_log: list = field(default_factory=list)
    #: Sampled span traces (empty unless ``trace_sample_every`` was set).
    traces: list = field(default_factory=list)
    #: Telemetry bundle (``None`` unless ``metrics_interval_s`` was set).
    metrics: Optional["MetricsReport"] = None
    #: Observability layer (``None`` unless ``run_benchmark`` got an
    #: ``obs`` policy): SLO alerts, exemplars, tail sampling, flight
    #: recorder.  Deliberately *not* part of :class:`BenchmarkConfig` —
    #: watching a run must not change its identity (content key).
    obs: Optional[object] = None

    @property
    def breakdown(self):
        """Per-component latency attribution (``None`` without tracing)."""
        return self.stats.breakdown

    @property
    def timeline(self) -> Optional[AvailabilityTimeline]:
        """Windowed throughput/error series (chaos and timed runs only)."""
        return self.stats.timeline

    @property
    def throughput_ops(self) -> float:
        """Operations per (simulated) second over the measurement window."""
        return self.stats.throughput

    def _histogram(self, op: OpType) -> LatencyHistogram:
        return self.stats.histogram(op)

    @property
    def read_latency(self) -> LatencyHistogram:
        """Latency histogram of read operations."""
        return self._histogram(OpType.READ)

    @property
    def write_latency(self) -> LatencyHistogram:
        """Latency histogram of insert (write) operations."""
        merged = LatencyHistogram()
        for op in (OpType.INSERT, OpType.UPDATE):
            if op in self.stats.histograms:
                merged.merge(self.stats.histograms[op])
        return merged

    @property
    def scan_latency(self) -> LatencyHistogram:
        """Latency histogram of scan operations."""
        return self._histogram(OpType.SCAN)

    def row(self) -> dict:
        """A flat record for tabular reporting."""
        return {
            "store": self.config.store,
            "workload": self.config.workload.name,
            "nodes": self.config.n_nodes,
            "cluster": self.config.cluster_spec.name,
            "throughput_ops": round(self.throughput_ops, 1),
            "read_ms": round(self.read_latency.mean * 1000, 3),
            "write_ms": round(self.write_latency.mean * 1000, 3),
            "scan_ms": round(self.scan_latency.mean * 1000, 3),
            "errors": self.stats.errors + self.store_errors,
            "error_pct": round(100.0 * self.stats.error_rate, 2),
        }


class Deployment:
    """One store deployed, loaded, warmed and wired — the paper's fresh
    install, once, for every way of driving it.

    Construction does steps 1-3 of the methodology and resolves what a
    driver needs from ``config``: the key sequence, the workload's op
    table, the connection count, the retry policy, the overload
    protections (``deadline_s``, retry ``budget``, circuit ``breaker``)
    and the ``chaos`` controller — one even for a fault-free config,
    whose empty schedule starts no process — subscribed to the store and
    then the breaker.  Every driver draws an operation with :meth:`draw`
    and runs it with :meth:`attempt`, so the point's wiring is threaded
    in one place.

    It wires but *starts* nothing.  Processes that share a timestamp run
    in the order they were started, so start order is part of what a
    driver measures: each driver starts chaos, telemetry and its own
    processes itself, in its own order.
    """

    def __init__(self, config: BenchmarkConfig):
        self.config = config
        cls = store_class(config.store)
        if config.workload.has_scans and not cls.supports_scans:
            raise ValueError(
                f"{config.store} does not support scans (workload "
                f"{config.workload.name}); the paper omits it from scan "
                "workloads")
        spec = scaled_spec(config.cluster_spec, config.records_per_node,
                           config.paper_records_per_node)
        n_clients = cls.clients_for(config.n_nodes, spec.servers_per_client)
        self.cluster = Cluster(spec, config.n_nodes, n_clients=n_clients)
        self.sim = self.cluster.sim
        self.store: Store = cls(self.cluster, schema=APM_SCHEMA,
                                **config.store_kwargs)
        policy = config.overload
        if policy is not None:
            self.store.configure_overload(policy)
        self.total_records = config.records_per_node * config.n_nodes
        self.store.load(generate_records(self.total_records, APM_SCHEMA))
        self.store.warm_caches()

        self.sequence = KeySequence(self.total_records)
        self.op_table = config.workload.op_table()
        self.rngs = RngRegistry(config.seed)
        self.n_connections = self.store.connections(
            spec.connections_per_node)
        self.retry = (config.retry if config.retry is not None
                      else self.store.retry_policy())
        self.deadline_s = None if policy is None else policy.deadline_s
        self.budget = self.breaker = None
        if policy is not None and policy.retry_budget_per_s is not None:
            self.budget = RetryBudget(policy.retry_budget_per_s,
                                      policy.retry_budget_burst)
        if policy is not None and policy.circuit_breaker:
            self.breaker = CircuitBreaker()
        # Even for an empty schedule: its ``start()`` then starts nothing.
        self.chaos = ChaosController(
            self.cluster, config.fault_schedule or FaultSchedule())
        self.chaos.subscribe(self.store)
        if self.breaker is not None:
            self.chaos.subscribe(self.breaker)

    def sessions(self) -> list:
        """Open the deployment's client connections, in index order."""
        return [self.store.session(self.cluster.client_for_connection(i), i)
                for i in range(self.n_connections)]

    def chooser(self, rng):
        """The workload's key chooser drawing from ``rng``."""
        return make_chooser(self.config.workload.distribution,
                            self.total_records, self.sequence, rng)

    def draw(self, rng, chooser):
        """The next operation, ``(op, key, row, scan_length)``, drawn
        from ``rng`` and ``chooser`` (see :func:`draw_operation`)."""
        return draw_operation(self.op_table, rng, chooser, self.sequence,
                              APM_SCHEMA, self.config.workload.scan_length)

    def attempt(self, session, op: OpType, key: str, row,
                scan_length: int, started: float):
        """The generator of one operation begun at ``started``, under the
        point's retry policy, retry budget, circuit breaker and deadline
        (see :func:`attempt_op`): delegate to it with ``yield from``.  A
        plain function, not a generator, so no frame wraps the attempt."""
        deadline_s = self.deadline_s
        return attempt_op(
            session, op, key, row, scan_length, self.retry,
            deadline=None if deadline_s is None else started + deadline_s,
            budget=self.budget, breaker=self.breaker)

    def start_telemetry(self, interval_s: float):
        """Instrument cluster and store, start sampling: ``(registry,
        sampler)``.  The one thing here that starts a process — call it
        where the driver's start order wants the sampler."""
        registry = MetricsRegistry(self.sim)
        instrument_cluster(registry, self.cluster)
        self.store.attach_metrics(registry)
        sampler = MetricsSampler(registry, interval_s)
        sampler.start()
        return registry, sampler


def run_benchmark(store: str, workload: Workload, n_nodes: int,
                  obs=None, audit=None, **overrides) -> BenchmarkResult:
    """Run one benchmark data point closed-loop and return its measurements.

    ``store`` is a registry name ("cassandra", "hbase", "voldemort",
    "redis", "voltdb", "mysql"); extra keyword arguments override
    :class:`BenchmarkConfig` fields.  With a config in hand, call
    :func:`run_config`.

    ``obs`` optionally attaches an :class:`~repro.obs.policy.ObsPolicy`
    observability overlay (SLO burn-rate alerting, exemplar-linked tail
    sampling, flight recorder).  It is a separate parameter, not a
    config field: observing a run must not change its content key or
    provenance fingerprint.

    ``audit`` optionally attaches a
    :class:`~repro.audit.history.HistoryRecorder` that logs every
    client operation's invocation/ack for the audit checkers.  Like
    ``obs`` it lives outside the config: auditing a run must leave it
    op-for-op identical to a bare one.
    """
    config = BenchmarkConfig(store=store, workload=workload, n_nodes=n_nodes,
                             **overrides)
    return run_config(config, obs=obs, audit=audit)


def run_config(config: BenchmarkConfig, obs=None,
               audit=None) -> BenchmarkResult:
    """Run the data point ``config`` describes, closed-loop: the
    primitive :func:`run_benchmark` builds a config for (which documents
    ``obs`` and ``audit``)."""
    deployment = Deployment(config)
    cluster, deployed = deployment.cluster, deployment.store

    stats = RunStats()
    if (config.fault_schedule is not None or config.duration_s is not None
            or config.metrics_interval_s is not None):
        window_s = config.availability_window_s
        if config.metrics_interval_s is not None:
            # The sustained check splits the measurement window into
            # sub-windows; the op timeline must resolve finer than those.
            window_s = min(window_s, config.metrics_interval_s)
        stats.timeline = AvailabilityTimeline(window_s)
    n_connections = deployment.n_connections
    if config.duration_s is not None:
        # Time-bounded run: the clock, not an op count, ends measurement.
        warmup_ops = config.warmup_ops
        measured_ops = 1 << 62
    else:
        # The measurement window must span many "rounds" of the closed
        # loop (and, for buffering clients, several buffer cycles), or
        # boundary effects dominate the throughput estimate.
        min_warmup, min_measured = deployed.min_window(n_connections)
        warmup_ops = max(config.warmup_ops, min_warmup)
        measured_ops = max(config.measured_ops, min_measured)
    control = RunControl(warmup_ops, measured_ops)
    throttle = (Throttle(cluster.sim, config.target_throughput)
                if config.target_throughput else None)
    chaos = deployment.chaos
    chaos.start()
    if obs is None and config.trace_sample_every is not None:
        # Attaches itself as ``sim.tracer``, where the clients read it.
        Tracer(cluster.sim, sample_every=config.trace_sample_every,
               max_traces=config.trace_max_traces)
    registry = sampler = None
    if config.metrics_interval_s is not None:
        registry, sampler = deployment.start_telemetry(
            config.metrics_interval_s)
    obs_layer = None
    if obs is not None:
        from repro.obs import ObsLayer
        # Tail sampling replaces head sampling: the keep/drop decision
        # moves to span-tree completion, with ``trace_sample_every``
        # (when set) gating which operations are candidates at all.
        obs_layer = ObsLayer(cluster.sim, obs, chaos, registry=registry,
                             candidate_every=config.trace_sample_every)
    watchers = tuple(w for w in (obs_layer, audit) if w is not None)
    threads = []
    for i, session in enumerate(deployment.sessions()):
        rng = deployment.rngs.stream(f"thread-{i}")
        threads.append(ClientThread(
            session, deployment, deployment.chooser(rng), stats, control,
            rng, throttle, watchers))
    processes = [cluster.sim.process(t.run(), name=f"client-{i}")
                 for i, t in enumerate(threads)]
    if config.duration_s is not None:
        cluster.sim.run(until=config.duration_s)
        control.done = True
        stats.finished_at = cluster.sim.now
        # Let every thread finish its in-flight operation (not measured:
        # ``done`` is already set) so no process is left mid-IO.
        cluster.sim.run(until=cluster.sim.all_of(processes))
    else:
        cluster.sim.run(until=cluster.sim.all_of(processes))
        if stats.finished_at == 0.0:
            stats.finished_at = cluster.sim.now

    metrics = None
    if sampler is not None:
        sampler.close()
        t0, t1 = stats.started_at, stats.finished_at
        saturation = sustained = None
        if t1 > t0:
            saturation = analyze_saturation(sampler.series, cluster, t0, t1,
                                            store_name=deployed.name)
            if stats.timeline is not None:
                sustained = verify_sustained(
                    stats.timeline, t0, t1,
                    subwindows=config.sustained_subwindows,
                    tolerance=config.sustained_tolerance)
        metrics = MetricsReport(registry=registry, series=sampler.series,
                                saturation=saturation, sustained=sustained,
                                exemplars=(obs_layer.exemplars
                                           if obs_layer is not None
                                           else None))
    if obs_layer is not None:
        obs_layer.close()
    tracer = cluster.sim.tracer

    return BenchmarkResult(
        config=config,
        stats=stats,
        connections=n_connections,
        store_errors=deployed.errors,
        disk_bytes_per_server=deployed.disk_bytes_per_server(),
        fault_log=list(chaos.log),
        traces=list(tracer.traces) if tracer is not None else [],
        metrics=metrics,
        obs=obs_layer,
    )
