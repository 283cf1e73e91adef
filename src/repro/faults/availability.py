"""Availability timelines: windowed throughput and error-rate series.

The paper reports scalar throughput over a fault-free measurement
window; an availability experiment needs the *time series* instead —
how many operations completed and how many failed in each small window,
so a fault's impact and the recovery afterwards are visible.

The timeline is a thin domain view over the repo's shared
:class:`~repro.metrics.timeseries.WindowedSeries` (channels ``ops`` and
``errors``), so chaos runs and metrics runs use one windowed-series
representation and one CSV exporter.  Rendering is fully deterministic
(the determinism test asserts byte-identical output for a fixed seed).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.timeseries import WindowedSeries

__all__ = ["AvailabilityWindow", "AvailabilityTimeline"]


@dataclass(frozen=True)
class AvailabilityWindow:
    """Operation counts over one ``[start, end)`` slice of sim time."""

    start: float
    end: float
    ops: int
    errors: int

    @property
    def duration(self) -> float:
        """Window width in simulated seconds."""
        return self.end - self.start

    @property
    def error_rate(self) -> float:
        """Fraction of completed operations that failed (0 when idle)."""
        return self.errors / self.ops if self.ops else 0.0

    @property
    def throughput(self) -> float:
        """Completed operations (successes + errors) per second."""
        return self.ops / self.duration if self.duration > 0 else 0.0

    @property
    def goodput(self) -> float:
        """Successful operations per second."""
        if self.duration <= 0:
            return 0.0
        return (self.ops - self.errors) / self.duration


class AvailabilityTimeline:
    """Fixed-width windowed counts of completed operations and errors."""

    def __init__(self, window_s: float = 0.25):
        #: The shared windowed-series representation underneath.
        self.series = WindowedSeries(window_s)

    @property
    def window_s(self) -> float:
        """Window width in simulated seconds."""
        return self.series.window_s

    def record(self, now: float, error: bool) -> None:
        """Count one operation completing at simulated time ``now``."""
        self.series.add(now, "ops", 1.0)
        if error:
            self.series.add(now, "errors", 1.0)

    def windows(self) -> list[AvailabilityWindow]:
        """The contiguous series from t=0 through the last active window."""
        return [
            AvailabilityWindow(
                start=w.start,
                end=w.end,
                ops=int(w.get("ops")),
                errors=int(w.get("errors")),
            )
            for w in self.series.windows()
        ]

    # -- aggregates over a sub-interval ---------------------------------------

    def _between(self, t0: float, t1: float) -> list[AvailabilityWindow]:
        return [w for w in self.windows() if w.start >= t0 and w.end <= t1]

    def error_rate_between(self, t0: float, t1: float) -> float:
        """Pooled error rate over windows fully inside ``[t0, t1]``."""
        selected = self._between(t0, t1)
        ops = sum(w.ops for w in selected)
        errors = sum(w.errors for w in selected)
        return errors / ops if ops else 0.0

    def throughput_between(self, t0: float, t1: float) -> float:
        """Mean completed-ops/s over windows fully inside ``[t0, t1]``."""
        selected = self._between(t0, t1)
        span = sum(w.duration for w in selected)
        return sum(w.ops for w in selected) / span if span > 0 else 0.0

    # -- deterministic rendering ----------------------------------------------

    def to_text(self) -> str:
        """A canonical textual rendering (determinism contract + CLI).

        One line per window: ``start end ops errors``.  Two runs with the
        same seed and schedule must produce byte-identical output.
        """
        lines = [
            f"{w.start:.6f} {w.end:.6f} {w.ops} {w.errors}"
            for w in self.windows()
        ]
        return "\n".join(lines)

    def to_csv(self) -> str:
        """The shared ``start,end,channel,value`` CSV of the series."""
        return self.series.to_csv()

    def render(self,
               fault_windows: list[tuple[float, float]] | None = None) -> str:
        """An aligned human-readable table with a throughput bar (40
        characters at the peak window).

        ``fault_windows`` marks windows overlapping a scheduled outage
        with ``*`` so the degradation is visible at a glance.
        """
        windows = self.windows()
        if not windows:
            return "(no operations recorded)"
        peak = max(w.throughput for w in windows) or 1.0
        lines = [f"{'window':>13}  {'ops/s':>9}  {'err%':>6}  "]
        for w in windows:
            marker = " "
            for t0, t1 in fault_windows or []:
                if w.start < t1 and w.end > t0:
                    marker = "*"
                    break
            bar = "#" * int(round(w.throughput / peak * 40))
            lines.append(
                f"{w.start:6.2f}-{w.end:<6.2f} {marker}"
                f"{w.throughput:>9,.0f}  {w.error_rate * 100:>5.1f}%  {bar}"
            )
        if fault_windows:
            lines.append("(* = window overlaps a scheduled fault)")
        return "\n".join(lines)
