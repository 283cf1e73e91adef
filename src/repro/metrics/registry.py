"""The metrics registry: counters, probes, histograms.

A :class:`MetricsRegistry` is attached to a simulator and stamps every
observation with *simulated* time, so telemetry is as deterministic as
the simulation itself.  Three metric kinds cover the stack:

* :class:`Counter` — a monotonically increasing count pushed by
  instrumentation sites (operations routed, replicas fanned out).
* :class:`ProbeGauge` / :class:`ProbeMeter` — *pull* metrics wrapping a
  callable; probes read state that existing components already maintain
  (``Disk.bytes_read``, ``Resource`` busy time, page-cache hit counts),
  which is what makes the disabled fast path truly zero-cost: nothing is
  recorded anywhere until a sampler or exporter asks.
* :class:`WindowedHistogram` — per-window distribution summaries
  (count / sum / min / max) over fixed slices of simulated time.

Metric identity is ``name`` plus sorted ``labels``; registering the same
identity twice returns the existing instance, so instrumentation sites
can be re-entered safely.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Callable, Optional

__all__ = [
    "Counter",
    "Metric",
    "MetricsRegistry",
    "ProbeGauge",
    "ProbeMeter",
    "WindowedHistogram",
]


def _label_key(labels: dict[str, Any]) -> tuple:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Metric:
    """Common identity: a name, labels, and a Prometheus-style kind."""

    kind = "untyped"

    def __init__(self, name: str, labels: dict[str, Any]):
        self.name = name
        self.labels = {k: str(v) for k, v in sorted(labels.items())}

    @property
    def channel(self) -> str:
        """The metric's canonical sample name (CSV channel / prom line)."""
        if not self.labels:
            return self.name
        rendered = ",".join(f'{k}="{v}"' for k, v in self.labels.items())
        return f"{self.name}{{{rendered}}}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.channel!r})"


class Counter(Metric):
    """A pushed, monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: dict[str, Any]):
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the count."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0: {amount}")
        self.value += amount


class ProbeMeter(Metric):
    """A pulled cumulative count: ``fn()`` returns the current total.

    Used to surface counts a component already tracks (bytes written,
    cache hits, WAL syncs) without touching its hot path.
    """

    kind = "counter"

    def __init__(self, name: str, labels: dict[str, Any],
                 fn: Callable[[], float]):
        super().__init__(name, labels)
        self._fn = fn

    @property
    def value(self) -> float:
        """The current cumulative total."""
        return float(self._fn())


class ProbeGauge(Metric):
    """A pulled instantaneous level: ``fn()`` returns the current value."""

    kind = "gauge"

    def __init__(self, name: str, labels: dict[str, Any],
                 fn: Callable[[], float]):
        super().__init__(name, labels)
        self._fn = fn

    @property
    def value(self) -> float:
        """The current level."""
        return float(self._fn())


class WindowedHistogram(Metric):
    """Per-window distribution summaries over fixed simulated-time slices.

    Each observation lands in the window containing its timestamp; a
    window tracks count, sum, min and max — enough for rate, mean and
    envelope plots without retaining raw samples.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: dict[str, Any],
                 clock: Callable[[], float], window_s: float = 1.0):
        super().__init__(name, labels)
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {window_s}")
        self._clock = clock
        self.window_s = window_s
        #: window index -> [count, total, min, max]
        self._cells: dict[int, list[float]] = {}
        self.count = 0
        self.total = 0.0

    @property
    def value(self) -> float:
        """Total observation count (the Prometheus ``_count`` sample)."""
        return float(self.count)

    def observe(self, value: float) -> None:
        """Record one observation at the current simulated time."""
        index = int(self._clock() / self.window_s)
        cell = self._cells.get(index)
        if cell is None:
            self._cells[index] = [1, value, value, value]
        else:
            cell[0] += 1
            cell[1] += value
            cell[2] = min(cell[2], value)
            cell[3] = max(cell[3], value)
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        """Mean over every observation (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def window_stats(self) -> list[tuple[float, float, int, float, float,
                                         float]]:
        """Per-window ``(start, end, count, mean, min, max)`` tuples."""
        out = []
        for index in sorted(self._cells):
            count, total, lo, hi = self._cells[index]
            out.append((index * self.window_s, (index + 1) * self.window_s,
                        int(count), total / count, lo, hi))
        return out


class MetricsRegistry:
    """All metrics of one simulation, keyed by (name, labels).

    The registry is the single holder instrumentation talks to;
    iteration order is always sorted by channel name, so every export
    (CSV, Prometheus, JSON) is deterministic by construction.
    """

    def __init__(self, sim):
        self.sim = sim
        self._metrics: dict[tuple, Metric] = {}
        self._order: list[tuple[str, tuple]] = []

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        for __, key in self._order:
            yield self._metrics[key]

    def _register(self, cls, name: str, labels: dict, factory) -> Metric:
        key = (name, _label_key(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {cls.__name__}"
                )
            return existing
        metric = factory()
        self._metrics[key] = metric
        insort(self._order, (metric.channel, key))
        return metric

    # -- factories -------------------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        """Get or create a pushed counter."""
        return self._register(Counter, name, labels,
                              lambda: Counter(name, labels))

    def meter(self, name: str, fn: Callable[[], float],
              **labels: Any) -> ProbeMeter:
        """Get or create a pulled cumulative counter over ``fn``."""
        return self._register(ProbeMeter, name, labels,
                              lambda: ProbeMeter(name, labels, fn))

    def probe(self, name: str, fn: Callable[[], float],
              **labels: Any) -> ProbeGauge:
        """Get or create a pulled instantaneous gauge over ``fn``."""
        return self._register(ProbeGauge, name, labels,
                              lambda: ProbeGauge(name, labels, fn))

    def histogram(self, name: str, window_s: float = 1.0,
                  **labels: Any) -> WindowedHistogram:
        """Get or create a windowed histogram."""
        return self._register(
            WindowedHistogram, name, labels,
            lambda: WindowedHistogram(name, labels,
                                      lambda: self.sim.now, window_s))

    # -- lookups ---------------------------------------------------------------

    def get(self, name: str, **labels: Any) -> Optional[Metric]:
        """The registered metric for ``(name, labels)``, or ``None``."""
        return self._metrics.get((name, _label_key(labels)))

    def snapshot(self) -> list[tuple[str, str, float]]:
        """Deterministic ``(channel, kind, value)`` rows for exporters."""
        return [(m.channel, m.kind, float(m.value)) for m in self]
