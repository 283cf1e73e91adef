"""Metric identities and measurements (Figure 2 of the paper).

An APM measurement looks like::

    Metric Name                                   Value Min Max Timestamp  Duration
    HostA/AgentX/ServletB/AverageResponseTime     4     1   6   1332988833 15

Measurements are append-only: agents aggregate events over their
reporting interval and append one record per metric per interval
(Section 3).  :meth:`Measurement.to_row` maps a measurement onto the
benchmark's generic record layout so it can be stored in any of the six
stores; keys embed the metric path and a zero-padded timestamp so range
scans retrieve contiguous time windows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["MetricId", "Measurement", "MonitoringLevel"]


class MonitoringLevel(enum.Enum):
    """APM data-collection levels (Section 3) and their rate multipliers."""

    BASIC = 1.0
    TRANSACTION_TRACE = 3.0
    INCIDENT_TRIAGE = 10.0


@dataclass(frozen=True)
class MetricId:
    """A fully qualified metric path: host/agent/component/metric."""

    host: str
    agent: str
    component: str
    metric: str

    @property
    def path(self) -> str:
        """The slash-joined metric name as agents report it."""
        return f"{self.host}/{self.agent}/{self.component}/{self.metric}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.path


#: Width of the zero-padded timestamp suffix in measurement keys.
_TS_DIGITS = 12


def measurement_key(metric: MetricId, timestamp: int) -> str:
    """The store key for one measurement: metric path + padded timestamp.

    Padding keeps lexicographic order equal to time order *within a
    metric*, which is what the sliding-window scans rely on.
    """
    return f"{metric.path}|{timestamp:0{_TS_DIGITS}d}"


@dataclass(frozen=True)
class Measurement:
    """One aggregated data point for one metric over one interval."""

    metric: MetricId
    value: float
    minimum: float
    maximum: float
    timestamp: int
    duration: int

    def __post_init__(self):
        if not self.minimum <= self.value <= self.maximum:
            raise ValueError(
                f"measurement value {self.value} outside "
                f"[{self.minimum}, {self.maximum}]"
            )
        if self.duration < 0:
            raise ValueError("duration cannot be negative")

    @property
    def key(self) -> str:
        """The store key for this measurement."""
        return measurement_key(self.metric, self.timestamp)

    def to_row(self) -> tuple[str, tuple]:
        """``(key, row)`` in the benchmark's five-field record layout."""
        return self.key, (f"{self.value:.4g}"[:10],
                          f"{self.minimum:.4g}"[:10],
                          f"{self.maximum:.4g}"[:10],
                          str(self.timestamp)[:10],
                          str(self.duration)[:10])

    @classmethod
    def from_row(cls, metric: MetricId, row: tuple) -> "Measurement":
        """Inverse of :meth:`to_row`: ``metric``'s measurement whose
        stored row is ``row``."""
        value, minimum, maximum, timestamp, duration = row
        return cls(metric=metric, value=float(value), minimum=float(minimum),
                   maximum=float(maximum), timestamp=int(timestamp),
                   duration=int(duration))
