"""The paper's example monitoring queries (Section 2).

On-line queries (sub-second expectations, sliding windows):

* "What was the maximum number of connections on host X within the last
  10 minutes?"
* "What was the average CPU utilization of Web servers of type Y within
  the last 15 minutes?"

Archive queries (minutes-scale expectations):

* "What was the average total response time for Web requests served by
  replications of servlet X in December 2011?"
* "What was the maximum average response time of calls from application
  Y to database Z within the last month?"

All four are implemented over a store session's ``scan`` primitive: keys
embed metric path + padded timestamp, so a window is one range scan per
metric.  Stores without scans (Voldemort) fall back to per-interval
point reads, exactly the workaround an operator of such a store would
deploy.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.metrics import Measurement, MetricId, measurement_key
from repro.stores.base import OpError, StoreSession

__all__ = ["MonitoringQueries"]


class MonitoringQueries:
    """Window aggregates over stored measurements, via one store session."""

    def __init__(self, session: StoreSession, interval_s: int = 10):
        self.session = session
        self.interval_s = interval_s

    # -- primitives --------------------------------------------------------

    def _window_measurements(self, metric: MetricId, now: int,
                             window_s: int):
        """Process: fetch a metric's measurements in ``[now-window_s, now]``."""
        start_ts = now - window_s
        expected = window_s // self.interval_s + 1
        start_key = measurement_key(metric, start_ts)
        end_key = measurement_key(metric, now)
        try:
            rows = yield from self.session.scan(start_key, expected)
            measurements = [
                Measurement.from_row(metric, row) for key, row in rows
                if key.startswith(metric.path) and key <= end_key
            ]
        except (OpError, NotImplementedError):
            # No scan support: issue one point read per interval slot.
            measurements = []
            for i in range(expected):
                ts = start_ts + i * self.interval_s
                row = yield from self.session.read(
                    measurement_key(metric, ts))
                if row is not None:
                    measurements.append(Measurement.from_row(metric, row))
        return measurements

    # -- on -------------------------------------------------------------------

    def max_over_window(self, metric: MetricId, now: int, window_s: int):
        """Process: max of a metric over a sliding window (query 1)."""
        rows = yield from self._window_measurements(metric, now, window_s)
        return max((m.maximum for m in rows), default=None)

    def avg_over_window(self, metrics: Iterable[MetricId], now: int,
                        window_s: int):
        """Process: average of several hosts' metrics over a window
        (query 2: the same metric measured on different machines)."""
        total = 0.0
        count = 0
        for metric in metrics:
            rows = yield from self._window_measurements(metric, now,
                                                        window_s)
            total += sum(m.value for m in rows)
            count += len(rows)
        return total / count if count else None

    # -- archive queries ------------------------------------------------------

    def avg_over_period(self, metrics: Iterable[MetricId], start: int,
                        end: int):
        """Process: average of metrics over an archive period (query 3)."""
        result = yield from self.avg_over_window(
            metrics, now=end, window_s=end - start)
        return result

    def max_of_averages(self, metrics: Iterable[MetricId], start: int,
                        end: int):
        """Process: maximum of per-interval average values (query 4)."""
        best: Optional[float] = None
        for metric in metrics:
            rows = yield from self._window_measurements(
                metric, now=end, window_s=end - start)
            for m in rows:
                if best is None or m.value > best:
                    best = m.value
        return best
