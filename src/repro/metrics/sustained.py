"""Sustained-throughput verification: the paper's sustainability test.

The paper reports *maximum sustainable throughput* — a rate the store
holds for the whole measurement window, not a burst that decays once
memtables fill or compaction kicks in.  :func:`verify_sustained` splits
the window into equal sub-windows, computes the throughput of each from
the run's operation timeline, and flags the run **unsustainable** when
the floor sub-window falls more than ``tolerance`` below the peak
(compaction dips, hinted-handoff backlog, GC-style stalls all show up
here).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

__all__ = ["SubWindow", "SustainedVerdict", "verify_sustained"]


@dataclass(frozen=True)
class SubWindow:
    """One slice of the measurement window and its mean throughput."""

    start: float
    end: float
    throughput: float


@dataclass(frozen=True)
class SustainedVerdict:
    """The outcome of splitting the window and comparing peak to floor."""

    windows: tuple[SubWindow, ...]
    peak: float
    floor: float
    #: (peak - floor) / peak; 0 when perfectly flat.
    degradation: float
    tolerance: float
    sustained: bool

    def render(self) -> str:
        """Per-sub-window throughputs plus the sustained/unsustainable line."""
        lines = ["sustained-throughput check"]
        for window in self.windows:
            lines.append(f"  [{window.start:8.3f}s, {window.end:8.3f}s) "
                         f"{window.throughput:10.1f} ops/s")
        verdict = "SUSTAINED" if self.sustained else "UNSUSTAINABLE"
        lines.append(
            f"  peak {self.peak:.1f} ops/s, floor {self.floor:.1f} ops/s, "
            f"degradation {100.0 * self.degradation:.1f}% "
            f"(tolerance {100.0 * self.tolerance:.0f}%) -> {verdict}"
        )
        return "\n".join(lines)

    def to_payload(self) -> dict:
        """A JSON-ready dict of the verdict."""
        return asdict(self)


def verify_sustained(timeline, t0: float, t1: float,
                     subwindows: int = 4,
                     tolerance: float = 0.25) -> SustainedVerdict:
    """Split ``[t0, t1]`` into ``subwindows`` slices and compare rates.

    ``timeline`` is the fault subsystem's :class:`~repro.faults.
    availability.AvailabilityTimeline`.  Sub-window rates are its
    series' overlap-weighted ``rate_between``, so slices narrower than
    a timeline bucket still resolve.
    """
    if subwindows < 2:
        raise ValueError(f"need >= 2 subwindows, got {subwindows}")
    if not 0.0 <= tolerance <= 1.0:
        raise ValueError(f"tolerance must be in [0, 1], got {tolerance}")
    span = t1 - t0
    if span <= 0:
        raise ValueError(f"empty measurement window: [{t0}, {t1}]")

    series = timeline.series
    # Snap the window inward to whole timeline buckets: edge buckets are
    # only partially covered by the run, and the series' uniform-activity
    # apportioning would misread them as throughput dips.  Keep the raw
    # bounds when the run is too short to afford it.
    w = series.window_s
    t0a = math.ceil(t0 / w - 1e-9) * w
    t1a = math.floor(t1 / w + 1e-9) * w
    if t1a - t0a >= subwindows * w:
        t0, t1 = t0a, t1a
        span = t1 - t0

    width = span / subwindows
    windows = []
    for k in range(subwindows):
        start = t0 + k * width
        end = t1 if k == subwindows - 1 else start + width
        windows.append(SubWindow(
            start=start, end=end,
            throughput=series.rate_between("ops", start, end)))

    peak = max(w.throughput for w in windows)
    floor = min(w.throughput for w in windows)
    degradation = (peak - floor) / peak if peak > 0 else 0.0
    return SustainedVerdict(windows=tuple(windows), peak=peak, floor=floor,
                            degradation=degradation, tolerance=tolerance,
                            sustained=degradation <= tolerance)
