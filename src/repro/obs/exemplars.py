"""Exemplars: bounded trace references attached to metric cells.

An exported percentile answers *how slow*; an exemplar answers *which
operation* — the bridge from aggregate telemetry to a concrete span
tree.  :class:`ExemplarStore` keeps two bounded, deterministic grids:

* a **histogram grid** keyed ``(window, op, latency bucket)`` using the
  same log-bucket geometry as
  :class:`~repro.ycsb.stats.LatencyHistogram`, holding the first
  ``per_bucket`` trace references that landed in each cell — this is
  what the OpenMetrics ``# {trace_id="..."}`` annotations and the CSV
  export read;
* a **violation grid** keyed ``(window, SLO name)``, fed only with
  traces the tail sampler actually *kept*, so every trace ID a fired
  alert links to resolves to a retained span tree.

First-k retention per cell is deterministic under a fixed seed (arrival
order is simulation order), and every renderer iterates cells in sorted
key order.
"""

from __future__ import annotations

import csv
import io
from typing import Optional

from repro.ycsb.stats import LatencyHistogram

__all__ = ["ExemplarStore", "latency_bucket", "bucket_lower_s"]


#: The grid's latency axis is the histogram's: a latency's bucket index
#: and a bucket's lower edge in seconds.
latency_bucket = LatencyHistogram.bucket
bucket_lower_s = LatencyHistogram.bucket_lower


class ExemplarStore:
    """Bounded per-cell trace references for one run."""

    def __init__(self, window_s: float = 0.25, per_bucket: int = 2,
                 per_violation: int = 8):
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if per_bucket < 1 or per_violation < 1:
            raise ValueError("per-cell capacities must be >= 1")
        self.window_s = window_s
        self.per_bucket = per_bucket
        self.per_violation = per_violation
        #: (window index, op, latency bucket) -> [(trace_id, latency_s)]
        self._cells: dict[tuple, list] = {}
        #: (window index, SLO name) -> [trace_id, ...]
        self._violations: dict[tuple, list] = {}
        self.offered = 0
        self.retained = 0

    def _window(self, now: float) -> int:
        return int(now / self.window_s)

    # -- writing -------------------------------------------------------------

    def offer(self, now: float, op: str, latency_s: float,
              trace_id: int) -> bool:
        """Offer one kept trace to its histogram cell (first-k wins)."""
        self.offered += 1
        key = (self._window(now), op, latency_bucket(latency_s))
        cell = self._cells.setdefault(key, [])
        if len(cell) >= self.per_bucket:
            return False
        cell.append((trace_id, latency_s))
        self.retained += 1
        return True

    def offer_violation(self, now: float, slo_name: str,
                        trace_id: int) -> bool:
        """Attach a kept trace to the SLO it violated (first-k wins)."""
        key = (self._window(now), slo_name)
        cell = self._violations.setdefault(key, [])
        if len(cell) >= self.per_violation:
            return False
        cell.append(trace_id)
        return True

    # -- reading -------------------------------------------------------------

    def violating(self, slo_name: str, t0: float, t1: float,
                  limit: Optional[int] = None) -> list:
        """Trace IDs that violated ``slo_name`` in ``[t0, t1)``.

        Ordered oldest-first; with ``limit`` the *most recent* IDs are
        returned — an alert should link to the operations that are
        failing now, not the first ones that ever did.
        """
        out: list[int] = []
        for (window, name), ids in sorted(self._violations.items()):
            if name != slo_name:
                continue
            start = window * self.window_s
            if start + self.window_s <= t0 or start >= t1:
                continue
            out.extend(ids)
        if limit is not None and len(out) > limit:
            out = out[len(out) - limit:]
        return out

    def trace_ids(self) -> list:
        """Every referenced trace ID, sorted and deduplicated."""
        ids = {tid for cell in self._cells.values() for tid, _ in cell}
        ids.update(tid for cell in self._violations.values()
                   for tid in cell)
        return sorted(ids)

    def prometheus_exemplars(self) -> dict:
        """Per-op exemplar map for the Prometheus exporter.

        Maps ``op_latency{op="..."}`` channels to the slowest retained
        ``(trace_id, latency_s)`` exemplar — OpenMetrics allows one
        exemplar per sample line, and the slowest operation is the one
        worth one click.
        """
        best: dict[str, tuple] = {}
        for (window, op, bucket) in sorted(self._cells):
            for trace_id, latency_s in self._cells[(window, op, bucket)]:
                current = best.get(op)
                if current is None or latency_s > current[1]:
                    best[op] = (trace_id, latency_s)
        return {f'op_latency{{op="{op}"}}': best[op] for op in sorted(best)}

    # -- export --------------------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-ready dict of both grids, in sorted cell order."""
        return {
            "window_s": self.window_s,
            "offered": self.offered,
            "retained": self.retained,
            "buckets": [
                {
                    "t0": window * self.window_s,
                    "op": op,
                    "bucket": bucket,
                    "bucket_lower_s": bucket_lower_s(bucket),
                    "exemplars": [
                        {"trace_id": tid, "latency_s": lat}
                        for tid, lat in self._cells[(window, op, bucket)]
                    ],
                }
                for (window, op, bucket) in sorted(self._cells)
            ],
            "violations": [
                {
                    "t0": window * self.window_s,
                    "slo": name,
                    "trace_ids": list(self._violations[(window, name)]),
                }
                for (window, name) in sorted(self._violations)
            ],
        }

    def to_csv(self) -> str:
        """Histogram-grid exemplars as deterministic CSV rows."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["window_start", "window_end", "op",
                         "bucket_lower_s", "trace_id", "latency_s"])
        for (window, op, bucket) in sorted(self._cells):
            start = window * self.window_s
            for trace_id, latency_s in self._cells[(window, op, bucket)]:
                writer.writerow([
                    f"{start:.6f}", f"{start + self.window_s:.6f}", op,
                    repr(bucket_lower_s(bucket)), trace_id,
                    repr(latency_s),
                ])
        return buffer.getvalue()
