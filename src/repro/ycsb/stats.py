"""Latency histograms and run summaries.

YCSB reports per-operation-type latency statistics and overall
throughput; this module provides the same, backed by a logarithmically
bucketed histogram so percentile queries stay O(buckets) regardless of
the operation count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.faults.availability import AvailabilityTimeline
from repro.stores.base import OpType
from repro.trace.breakdown import ComponentBreakdown

__all__ = ["ERROR_KINDS", "LatencyHistogram", "RunStats"]

#: Error classification recorded alongside per-op error counts:
#: ``store`` — semantic store failure (OpError / failed result);
#: ``fault`` — infrastructure fault that exhausted its retries;
#: ``overload`` — admission-control rejection (queue full / shed);
#: ``deadline`` — the op's deadline expired.
ERROR_KINDS = ("store", "fault", "overload", "deadline")


class LatencyHistogram:
    """A log-bucketed latency histogram over (1 us, ~1000 s)."""

    MIN_LATENCY = 1e-6
    BUCKETS_PER_DECADE = 20
    N_BUCKETS = 9 * BUCKETS_PER_DECADE  # up to 10^3 seconds

    def __init__(self):
        self._counts = [0] * self.N_BUCKETS
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self.max = 0.0
        self.errors = 0
        #: Error counts split by class (see :data:`ERROR_KINDS`), so
        #: rejected/expired ops stay distinguishable from infrastructure
        #: faults in per-op error stats.
        self.error_kinds: dict[str, int] = {}

    @property
    def min(self) -> float:
        """Smallest recorded latency (0 when empty, like ``max``)."""
        return self._min if self.count else 0.0

    @staticmethod
    def bucket(latency_s: float) -> int:
        """The index of the bucket ``latency_s`` falls in — the one
        geometry, shared with the exemplar grid of :mod:`repro.obs`."""
        if latency_s <= LatencyHistogram.MIN_LATENCY:
            return 0
        index = int(math.log10(latency_s / LatencyHistogram.MIN_LATENCY)
                    * LatencyHistogram.BUCKETS_PER_DECADE)
        return min(index, LatencyHistogram.N_BUCKETS - 1)

    @staticmethod
    def bucket_lower(index: int) -> float:
        """The lower latency edge (seconds) of bucket ``index``."""
        if index <= 0:
            return 0.0
        return LatencyHistogram.MIN_LATENCY * 10 ** (
            index / LatencyHistogram.BUCKETS_PER_DECADE)

    def record(self, latency_s: float, error: bool = False,
               kind: Optional[str] = None) -> None:
        """Add one measured operation.

        ``kind`` classifies an error (defaults to ``"store"``); it is
        ignored for successful operations.
        """
        if latency_s < 0:
            raise ValueError("latency cannot be negative")
        self.count += 1
        self.total += latency_s
        self._min = min(self._min, latency_s)
        self.max = max(self.max, latency_s)
        self._counts[self.bucket(latency_s)] += 1
        if error:
            self.errors += 1
            key = kind or "store"
            self.error_kinds[key] = self.error_kinds.get(key, 0) + 1

    @property
    def mean(self) -> float:
        """Average latency in seconds (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The latency below which ``p`` percent of operations fall."""
        if not 0 < p <= 100:
            raise ValueError("percentile must be in (0, 100]")
        if self.count == 0:
            return 0.0
        target = math.ceil(self.count * p / 100.0)
        seen = 0
        for index, bucket_count in enumerate(self._counts):
            seen += bucket_count
            if seen >= target:
                # Upper edge of the bucket, clamped to the observed range
                # so estimates never exceed ``max`` (a single sample's
                # bucket edge can overshoot it) or undercut ``min``.
                edge = self.bucket_lower(index + 1)
                return min(max(edge, self._min), self.max)
        return self.max

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram into this one."""
        for i, c in enumerate(other._counts):
            self._counts[i] += c
        self.count += other.count
        self.total += other.total
        self._min = min(self._min, other._min)
        self.max = max(self.max, other.max)
        self.errors += other.errors
        for kind, n in other.error_kinds.items():
            self.error_kinds[kind] = self.error_kinds.get(kind, 0) + n


@dataclass
class RunStats:
    """Everything measured during one benchmark run."""

    histograms: dict[OpType, LatencyHistogram] = field(default_factory=dict)
    operations: int = 0
    errors: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0
    #: Windowed throughput/error series spanning the *whole* run (warm-up
    #: included) — attached by the runner for chaos experiments.
    timeline: Optional[AvailabilityTimeline] = None
    #: Per-component latency attribution over the sampled traces
    #: (populated lazily by :meth:`note_trace` when tracing is on).
    breakdown: Optional[ComponentBreakdown] = None

    def histogram(self, op: OpType) -> LatencyHistogram:
        """The histogram for ``op``, created on first use."""
        if op not in self.histograms:
            self.histograms[op] = LatencyHistogram()
        return self.histograms[op]

    def record(self, op: OpType, latency_s: float,
               error: bool = False, kind: Optional[str] = None) -> None:
        """Add one completed operation."""
        self.histogram(op).record(latency_s, error, kind)
        self.operations += 1
        if error:
            self.errors += 1

    def error_kind_total(self, kind: str) -> int:
        """Errors of ``kind`` summed over all operation types."""
        return sum(h.error_kinds.get(kind, 0)
                   for h in self.histograms.values())

    @property
    def rejected_ops(self) -> int:
        """Ops that failed with an admission-control rejection."""
        return self.error_kind_total("overload")

    @property
    def expired_ops(self) -> int:
        """Ops that failed because their deadline passed."""
        return self.error_kind_total("deadline")

    def note_op(self, now: float, error: bool) -> None:
        """Feed the availability timeline (every completed op, always).

        Unlike :meth:`record`, this ignores the measurement window: the
        timeline exists to show behaviour *over time* — degradation during
        an outage, recovery after restart — so trimming warm-up would hide
        exactly the transitions it is for.
        """
        if self.timeline is not None:
            self.timeline.record(now, error)

    def note_trace(self, trace) -> None:
        """Fold one sampled trace into the per-component breakdown."""
        if self.breakdown is None:
            self.breakdown = ComponentBreakdown()
        self.breakdown.add_trace(trace)

    @property
    def error_rate(self) -> float:
        """Errors as a fraction of measured operations."""
        return self.errors / self.operations if self.operations else 0.0

    @property
    def duration(self) -> float:
        """Measured (simulated) wall time of the run."""
        return max(0.0, self.finished_at - self.started_at)

    @property
    def throughput(self) -> float:
        """Operations per simulated second."""
        return self.operations / self.duration if self.duration > 0 else 0.0

    def latency(self, op: OpType) -> float:
        """Mean latency for ``op`` (0 when that op never ran)."""
        histogram = self.histograms.get(op)
        return histogram.mean if histogram else 0.0

    def summary(self) -> Mapping[str, float]:
        """A flat dict of the headline numbers."""
        out: dict[str, float] = {
            "throughput_ops": self.throughput,
            "operations": float(self.operations),
            "errors": float(self.errors),
            "error_rate": self.error_rate,
            "duration_s": self.duration,
        }
        for op, histogram in self.histograms.items():
            out[f"{op.value}_mean_s"] = histogram.mean
            out[f"{op.value}_p95_s"] = histogram.percentile(95)
            out[f"{op.value}_p99_s"] = histogram.percentile(99)
            out[f"{op.value}_errors"] = float(histogram.errors)
            out[f"{op.value}_error_rate"] = (
                histogram.errors / histogram.count if histogram.count else 0.0
            )
            for kind, n in sorted(histogram.error_kinds.items()):
                out[f"{op.value}_{kind}_errors"] = float(n)
        return out
