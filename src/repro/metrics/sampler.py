"""Periodic snapshotting of registry metrics into a windowed series.

The :class:`MetricsSampler` is a simulation process that wakes every
``interval_s`` of *simulated* time and writes one row per metric into a
:class:`~repro.metrics.timeseries.WindowedSeries`:

* counters and meters (cumulative) become **per-window deltas** — the
  window's share of the count, from which rates and utilisations follow;
* gauges, probes and histograms become **point samples** — the level at
  the window's close.

The sampler ticks at ``t = k * interval_s`` and attributes the sample to
window ``k - 1`` (the slice that just ended).  A final partial window is
captured by :meth:`close`, which the benchmark runner calls once the
run's clients have drained.
"""

from __future__ import annotations

from repro.metrics.registry import (
    Counter,
    MetricsRegistry,
    ProbeGauge,
    ProbeMeter,
    WindowedHistogram,
)
from repro.metrics.timeseries import WindowedSeries

__all__ = ["MetricsSampler"]


class MetricsSampler:
    """Snapshots every registry metric at a fixed simulated cadence."""

    def __init__(self, registry: MetricsRegistry, interval_s: float = 0.25):
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.registry = registry
        self.interval_s = interval_s
        self.series = WindowedSeries(interval_s)
        self.samples_taken = 0
        self._last_totals: dict[str, float] = {}
        #: Completed full windows (also the index of the partial window).
        self._ticks = 0
        self._closed = False
        self._process = None

    def start(self):
        """Spawn the sampling process on the registry's simulator."""
        if self._process is None:
            self._process = self.registry.sim.process(
                self._run(), name="metrics-sampler")
        return self._process

    def _run(self):
        sim = self.registry.sim
        while not self._closed:
            yield sim.timeout(self.interval_s)
            if self._closed:
                break
            # The tick at t = (k+1) * interval closes window k; counting
            # ticks (rather than dividing sim.now) keeps the window index
            # exact regardless of floating-point drift in the clock.
            self._sample(self._ticks)
            self._ticks += 1

    def _sample(self, index: int) -> None:
        """Write one row of every metric into window ``index``."""
        for metric in self.registry:
            channel = metric.channel
            if isinstance(metric, (Counter, ProbeMeter)):
                total = float(metric.value)
                delta = total - self._last_totals.get(channel, 0.0)
                self._last_totals[channel] = total
                self.series.add_at(index, channel, delta)
            elif isinstance(metric, ProbeGauge):
                self.series.put_at(index, channel, float(metric.value))
            elif isinstance(metric, WindowedHistogram):
                self.series.put_at(index, channel, float(metric.count))
        self.samples_taken += 1

    def close(self) -> None:
        """Stop sampling and capture the final (possibly partial) window.

        Counter deltas accumulated since the last full tick land in the
        window containing the current simulated time, so no activity at
        the tail of a run escapes the series.
        """
        if self._closed:
            return
        self._closed = True
        now = self.registry.sim.now
        if now > self._ticks * self.interval_s:
            self._sample(self._ticks)
