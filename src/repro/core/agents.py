"""Monitoring agents and agent fleets.

Section 1 sizes the problem: a data centre of 10 K nodes, each reporting
an average of 10 K metrics every 10 seconds — ten million measurements a
second.  :class:`AgentFleet` generates exactly that shape of traffic (at
configurable scale) as a deterministic stream of
:class:`~repro.core.metrics.Measurement` records, either for direct
functional loading into a store or as a simulation process that inserts
through a store session at the reporting interval.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.metrics import Measurement, MetricId, MonitoringLevel
from repro.hashing import murmur64a

__all__ = ["Agent", "AgentFleet"]

_COMPONENTS = ("ServletA", "ServletB", "Database", "MessageQueue",
               "WebService", "Cache", "AuthService", "Mainframe")
_METRIC_KINDS = ("AverageResponseTime", "ConcurrentInvocations",
                 "ErrorsPerInterval", "CPUUtilization",
                 "ConnectionCount", "StallCount")


@dataclass
class Agent:
    """One in-process monitoring agent reporting a fixed metric set."""

    host: str
    name: str
    n_metrics: int
    interval_s: int = 10
    level: MonitoringLevel = MonitoringLevel.BASIC
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self):
        # murmur64a, not ``hash``: str hashes are salted per process.
        self._rng = random.Random(murmur64a(
            f"{self.seed}:{self.host}:{self.name}".encode()))
        self._metrics = [self._metric_id(i) for i in range(self.n_metrics)]

    def _metric_id(self, index: int) -> MetricId:
        component = _COMPONENTS[index % len(_COMPONENTS)]
        kind = _METRIC_KINDS[(index // len(_COMPONENTS)) % len(_METRIC_KINDS)]
        qualifier = index // (len(_COMPONENTS) * len(_METRIC_KINDS))
        metric = kind if qualifier == 0 else f"{kind}.{qualifier}"
        return MetricId(self.host, self.name, component, metric)

    @property
    def metrics(self) -> list[MetricId]:
        """The metric identities this agent reports."""
        return list(self._metrics)

    @property
    def reports_per_interval(self) -> int:
        """Measurements emitted per reporting interval at this level."""
        return int(self.n_metrics * self.level.value)

    def report(self, timestamp: int) -> Iterator[Measurement]:
        """The agent's measurements for the interval ending at ``timestamp``.

        Values follow a stable per-metric baseline with bounded noise, so
        window aggregates have predictable, testable answers.
        """
        repeat = max(1, int(self.level.value))
        for metric in self._metrics:
            baseline = 10.0 + (murmur64a(metric.path.encode()) % 90)
            for r in range(repeat):
                noise = self._rng.random() * 0.2 * baseline
                low = baseline - noise
                high = baseline + noise
                yield Measurement(
                    metric=metric,
                    value=(low + high) / 2,
                    minimum=low,
                    maximum=high,
                    timestamp=timestamp - r,  # trace mode sub-samples
                    duration=self.interval_s,
                )


@dataclass
class AgentFleet:
    """All agents of a monitored data centre."""

    n_hosts: int
    metrics_per_host: int = 100
    interval_s: int = 10
    level: MonitoringLevel = MonitoringLevel.BASIC
    seed: int = 0

    def __post_init__(self):
        self.agents = [
            Agent(host=f"host{i:05d}", name="agent0",
                  n_metrics=self.metrics_per_host,
                  interval_s=self.interval_s, level=self.level,
                  seed=self.seed)
            for i in range(self.n_hosts)
        ]

    @property
    def measurements_per_second(self) -> float:
        """The fleet's aggregate reporting rate."""
        per_interval = sum(a.reports_per_interval for a in self.agents)
        return per_interval / self.interval_s

    def report_all(self, timestamp: int) -> Iterator[Measurement]:
        """Every agent's measurements for one interval."""
        for agent in self.agents:
            yield from agent.report(timestamp)

    def stream(self, start_timestamp: int,
               intervals: int) -> Iterator[Measurement]:
        """Measurements for ``intervals`` consecutive reporting rounds."""
        for i in range(intervals):
            yield from self.report_all(start_timestamp + i * self.interval_s)
