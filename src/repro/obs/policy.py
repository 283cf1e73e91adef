"""Declarative observability policy: SLOs, burn-rate rules, budgets.

An :class:`SLO` states an objective over the operations of one run —
"99% of reads complete within 50 ms", "99.9% of operations succeed",
"99.5% of operations are not rejected by admission control".  Each op is
classified *good* or *bad* against every objective in scope; the
resulting good/bad counters feed the error-budget burn-rate evaluation
in :class:`~repro.obs.slo.SLOEngine`.

A :class:`BurnRateRule` is the Google-SRE multi-window alert condition:
the alert fires only when the budget burn rate exceeds ``factor`` over
*both* a long window (evidence the problem is real) and a short window
(evidence it is still happening), and clears with hysteresis
(``clear_ratio``).

:class:`ObsPolicy` bundles the objectives with the tail-sampling,
exemplar and flight-recorder knobs.  It is a frozen dataclass whose
``to_dict`` is its JSON export (nothing reads it back), and it is *not*
part of :class:`~repro.ycsb.runner.BenchmarkConfig` — observability is
an overlay on a run, not part of the workload's identity.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.ycsb.stats import ERROR_KINDS

__all__ = ["SLO", "BurnRateRule", "ObsPolicy", "DEFAULT_RULES",
           "default_slos"]

#: Objective kinds an :class:`SLO` can state.
SLO_KINDS = ("latency", "error_rate", "availability")


@dataclass(frozen=True)
class SLO:
    """One service-level objective over the run's operations."""

    name: str
    #: ``latency`` — good iff the op succeeded within ``threshold_s``;
    #: ``error_rate`` — bad iff the op failed with one of
    #: ``error_kinds`` (all kinds when ``None``);
    #: ``availability`` — good iff the op succeeded at all.
    kind: str
    #: Target good fraction, e.g. ``0.99``; the error budget is
    #: ``1 - target``.
    target: float
    #: Latency bound (seconds); required for ``latency`` objectives.
    threshold_s: Optional[float] = None
    #: Error kinds charged against an ``error_rate`` objective
    #: (subset of :data:`repro.ycsb.stats.ERROR_KINDS`).
    error_kinds: Optional[tuple] = None
    #: Restrict the objective to these op names (``None`` = all ops).
    ops: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in SLO_KINDS:
            raise ValueError(f"kind must be one of {SLO_KINDS}, "
                             f"got {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {self.target}")
        if self.kind == "latency":
            if self.threshold_s is None or self.threshold_s <= 0:
                raise ValueError("latency objectives need threshold_s > 0")
        if self.error_kinds is not None:
            unknown = set(self.error_kinds) - set(ERROR_KINDS)
            if unknown:
                raise ValueError(f"unknown error kinds {sorted(unknown)}; "
                                 f"expected a subset of {ERROR_KINDS}")

    def classify(self, op: str, latency_s: float, error: bool,
                 error_kind: Optional[str]) -> Optional[bool]:
        """``True`` = good, ``False`` = bad, ``None`` = out of scope."""
        if self.ops is not None and op not in self.ops:
            return None
        if self.kind == "latency":
            return not error and latency_s <= self.threshold_s
        if self.kind == "error_rate":
            if not error:
                return True
            if self.error_kinds is None:
                return False
            return (error_kind or "store") not in self.error_kinds
        return not error  # availability

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BurnRateRule:
    """A multi-window burn-rate alert condition (fast + slow window)."""

    name: str
    #: The slow window: evidence the burn is sustained, not a blip.
    long_s: float
    #: The fast window: evidence the burn is *still* happening, so a
    #: recovered incident stops paging.
    short_s: float
    #: Minimum burn rate (budget consumption speed as a multiple of the
    #: sustainable rate) over *both* windows for the alert to fire.
    factor: float
    #: Severity label carried into the alert log.
    severity: str = "page"
    #: Hysteresis: a firing alert clears only once the long-window burn
    #: retreats below ``factor * clear_ratio``.
    clear_ratio: float = 0.9

    def __post_init__(self):
        if self.long_s <= 0 or self.short_s <= 0:
            raise ValueError("burn-rate windows must be positive")
        if self.short_s >= self.long_s:
            raise ValueError("short_s must be smaller than long_s")
        if self.factor <= 0:
            raise ValueError("factor must be positive")
        if not 0.0 < self.clear_ratio <= 1.0:
            raise ValueError("clear_ratio must be in (0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)


#: The default fast/slow rule pair.  Simulated incidents play out over
#: seconds, not hours, so the windows are compressed but keep the
#: Google-SRE structure: a fast, high-factor page and a slower,
#: low-factor ticket.
DEFAULT_RULES = (
    BurnRateRule(name="page", long_s=2.0, short_s=0.5, factor=8.0,
                 severity="page"),
    BurnRateRule(name="ticket", long_s=6.0, short_s=1.5, factor=2.0,
                 severity="ticket"),
)


def default_slos(latency_slo_s: float = 0.25,
                 latency_target: float = 0.99,
                 availability_target: float = 0.999) -> tuple:
    """The standard objective set the CLI and benchmarks start from."""
    return (
        SLO(name="latency", kind="latency", target=latency_target,
            threshold_s=latency_slo_s),
        SLO(name="availability", kind="availability",
            target=availability_target),
        SLO(name="overload-errors", kind="error_rate", target=0.995,
            error_kinds=("overload", "deadline")),
    )


@dataclass(frozen=True)
class ObsPolicy:
    """Everything the observability layer needs to watch one run."""

    slos: tuple = field(default_factory=tuple)
    rules: tuple = DEFAULT_RULES
    #: Window width of the SLO good/bad series and the exemplar grid.
    window_s: float = 0.25
    #: Burn-rate evaluation cadence of the SLO engine process.
    tick_s: float = 0.25
    #: Retained exemplars per (window, op, latency-bucket) cell.
    exemplars_per_bucket: int = 2
    #: Retained violation exemplars per (window, SLO) cell.
    exemplars_per_violation: int = 8
    #: Exemplar trace IDs attached to one fired alert.
    max_alert_exemplars: int = 4
    #: Tail sampling: keep traces slower than this (``None`` derives the
    #: bound from the tightest latency objective, falling back to 0.25 s).
    tail_slow_threshold_s: Optional[float] = None
    #: Hard cap on kept traces (the deterministic keep budget).
    tail_keep_budget: int = 200
    #: Keep every Nth healthy trace as a baseline (0 = none).
    tail_baseline_every: int = 50
    #: Open a candidate span tree for every Nth operation.
    candidate_every: int = 1
    #: Flight-recorder ring capacity (entries).
    recorder_capacity: int = 256
    #: Max automatic dumps per run, and per-trigger dedupe gap.
    recorder_max_dumps: int = 8
    recorder_min_gap_s: float = 0.5

    def __post_init__(self):
        if self.window_s <= 0 or self.tick_s <= 0:
            raise ValueError("window_s and tick_s must be positive")
        if self.exemplars_per_bucket < 1:
            raise ValueError("exemplars_per_bucket must be >= 1")
        if self.exemplars_per_violation < 1:
            raise ValueError("exemplars_per_violation must be >= 1")
        if self.max_alert_exemplars < 0:
            raise ValueError("max_alert_exemplars must be >= 0")
        if (self.tail_slow_threshold_s is not None
                and self.tail_slow_threshold_s <= 0):
            raise ValueError("tail_slow_threshold_s must be positive")
        if self.tail_keep_budget < 1:
            raise ValueError("tail_keep_budget must be >= 1")
        if self.tail_baseline_every < 0:
            raise ValueError("tail_baseline_every must be >= 0")
        if self.candidate_every < 1:
            raise ValueError("candidate_every must be >= 1")
        if self.recorder_capacity < 1:
            raise ValueError("recorder_capacity must be >= 1")
        if self.recorder_max_dumps < 1:
            raise ValueError("recorder_max_dumps must be >= 1")
        if self.recorder_min_gap_s < 0:
            raise ValueError("recorder_min_gap_s must be >= 0")
        names = [slo.name for slo in self.slos]
        if len(names) != len(set(names)):
            raise ValueError("SLO names must be unique")
        rule_names = [rule.name for rule in self.rules]
        if len(rule_names) != len(set(rule_names)):
            raise ValueError("burn-rate rule names must be unique")

    def slow_threshold(self) -> float:
        """The tail-sampling latency bound actually in force."""
        if self.tail_slow_threshold_s is not None:
            return self.tail_slow_threshold_s
        bounds = [slo.threshold_s for slo in self.slos
                  if slo.kind == "latency" and slo.threshold_s is not None]
        return min(bounds) if bounds else 0.25

    def to_dict(self) -> dict:
        return asdict(self)
