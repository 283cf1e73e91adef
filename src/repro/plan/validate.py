"""Simulation validation of the analytical frontier.

Each surviving candidate becomes a real :class:`BenchmarkConfig` — the
candidate's hardware profile as the cluster spec, the load spec's
workload, and the required rate as a bounded-load target — and runs
through the PR-4 orchestrator: the content-addressed
:class:`~repro.orchestrator.store.ResultStore` makes re-planning free
(cache hits), and :func:`~repro.orchestrator.pool.execute_grid` gives
parallel byte-identical execution.  The configs carry **no** opaque
values (no custom store kwargs, schedules or policies), so they stay
portable across process boundaries and content-addressable on disk.

A candidate passes when the simulated run (a) sustains the required
rate within tolerance and (b) meets every latency SLO percentile.  The
analytical model claims neither — it is optimistic on throughput and
silent on latency — which is exactly why candidates the model likes can
die here, and why the recommendation is made *after* this step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.orchestrator.plan import derive_seed, estimate_cost_units
from repro.orchestrator.pool import PointOutcome, execute_grid
from repro.orchestrator.store import ResultStore
from repro.plan.search import FrontierEntry
from repro.plan.spec import LoadSpec, SLOTarget
from repro.ycsb.runner import BenchmarkConfig

__all__ = ["ValidationSettings", "SLOCheck", "ValidationOutcome",
           "estimate_validation_cost", "validation_config",
           "validate_frontier"]


@dataclass(frozen=True)
class ValidationSettings:
    """Scale knobs of the validation simulations.

    Small enough to finish in seconds per candidate, large enough that
    the cache regime and steady-state throughput are representative
    (the runner still enforces each store's minimum measurement
    window).
    """

    records_per_node: int = 20_000
    measured_ops: int = 4_000
    warmup_ops: int = 500
    #: Achieved throughput may fall this fraction short of the target
    #: before the candidate fails (closed-loop ramp effects).
    throughput_tolerance: float = 0.05

    def __post_init__(self):
        if self.records_per_node < 1:
            raise ValueError("records_per_node must be >= 1")
        if self.measured_ops < 1:
            raise ValueError("measured_ops must be >= 1")
        if self.warmup_ops < 0:
            raise ValueError("warmup_ops must be >= 0")
        if not 0 <= self.throughput_tolerance < 1:
            raise ValueError("throughput_tolerance must be in [0, 1)")


@dataclass(frozen=True)
class SLOCheck:
    """One latency target evaluated against a simulated histogram."""

    target: SLOTarget
    observed_s: float | None  # None: no operations of this type ran
    passed: bool
    note: str = ""

    def row(self) -> dict:
        return {
            "op": self.target.op,
            "percentile": self.target.percentile,
            "max_latency_ms": round(self.target.max_latency_s * 1000, 3),
            "observed_ms": (None if self.observed_s is None
                            else round(self.observed_s * 1000, 3)),
            "passed": self.passed,
            "note": self.note,
        }


@dataclass
class ValidationOutcome:
    """What the simulation said about one frontier candidate."""

    entry: FrontierEntry
    config: BenchmarkConfig
    content_hash: str
    cached: bool
    simulated_ops_per_s: float
    required_ops_per_s: float
    throughput_ok: bool
    slo_checks: list[SLOCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.throughput_ok and all(c.passed for c in self.slo_checks)

    def row(self) -> dict:
        candidate = self.entry.candidate
        return {
            "store": candidate.store,
            "hardware": candidate.hardware.name,
            "n_nodes": candidate.n_nodes,
            "cost": round(candidate.cost, 3),
            "modeled_ops_per_s": round(self.entry.modeled.ops_per_s, 1),
            "simulated_ops_per_s": round(self.simulated_ops_per_s, 1),
            "required_ops_per_s": round(self.required_ops_per_s, 1),
            "binding": self.entry.modeled.binding,
            "throughput_ok": self.throughput_ok,
            "slo_checks": [c.row() for c in self.slo_checks],
            "passed": self.passed,
            # Deliberately no `cached` flag: the export must be
            # byte-identical whether the run was cold or replayed from
            # the result store.
            "content_hash": self.content_hash,
        }


def validation_config(entry: FrontierEntry, spec: LoadSpec,
                      settings: ValidationSettings) -> BenchmarkConfig:
    """The benchmark point that puts one candidate to the test.

    The offered load is bounded at the required rate (the Figure 15/16
    methodology): a candidate with headroom simply sustains the target,
    while an under-provisioned one visibly falls short.  The per-point
    seed derives from the spec seed and the candidate's identity, so
    points are statistically independent yet exactly reproducible.
    """
    candidate = entry.candidate
    return BenchmarkConfig(
        store=candidate.store,
        workload=spec.workload,
        n_nodes=candidate.n_nodes,
        cluster_spec=candidate.hardware.cluster_spec(),
        records_per_node=settings.records_per_node,
        measured_ops=settings.measured_ops,
        warmup_ops=settings.warmup_ops,
        seed=derive_seed(spec.seed, f"plan/{candidate.label()}"),
        target_throughput=spec.required_ops_per_s,
    )


def estimate_validation_cost(entries: list[FrontierEntry], spec: LoadSpec,
                             settings: ValidationSettings) -> float:
    """Cost units of simulating the frontier (the orchestrator's scale)."""
    return sum(
        estimate_cost_units(validation_config(entry, spec, settings))
        for entry in entries)


def _check_slos(result, targets: tuple[SLOTarget, ...]) -> list[SLOCheck]:
    checks: list[SLOCheck] = []
    histograms = {
        "read": result.read_latency,
        "write": result.write_latency,
        "scan": result.scan_latency,
    }
    for target in targets:
        histogram = histograms[target.op]
        if histogram.count == 0:
            # No operations of this type ran at validation scale —
            # vacuously true, but say so rather than claim a measurement.
            checks.append(SLOCheck(
                target=target, observed_s=None, passed=True,
                note=f"no {target.op} operations in the validation run"))
            continue
        observed = histogram.percentile(target.percentile)
        checks.append(SLOCheck(
            target=target, observed_s=observed,
            passed=observed <= target.max_latency_s))
    return checks


def validate_frontier(entries: list[FrontierEntry], spec: LoadSpec,
                      settings: ValidationSettings,
                      store: ResultStore | None = None,
                      jobs: int = 1,
                      progress=None) -> list[ValidationOutcome]:
    """Simulate every frontier candidate; outcomes in input order.

    Results route through ``store`` when given: candidates already
    simulated (this plan or any earlier one) are cache hits and never
    reach a worker, which is what makes iterating on a load spec cheap.
    """
    configs = [validation_config(entry, spec, settings)
               for entry in entries]
    points: list[PointOutcome] = execute_grid(
        configs, jobs=jobs, store=store, progress=progress)

    outcomes: list[ValidationOutcome] = []
    required = spec.required_ops_per_s
    floor = required * (1.0 - settings.throughput_tolerance)
    for entry, point in zip(entries, points):
        simulated = point.result.throughput_ops
        outcomes.append(ValidationOutcome(
            entry=entry,
            config=point.config,
            content_hash=point.content_hash,
            cached=point.cached,
            simulated_ops_per_s=simulated,
            required_ops_per_s=required,
            throughput_ok=simulated >= floor,
            slo_checks=_check_slos(point.result, spec.slos),
        ))
    return outcomes
