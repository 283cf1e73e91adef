"""Prometheus text-format snapshot of a metrics registry.

:func:`registry_to_prometheus` renders every metric as the standard
exposition format (a `# TYPE` header plus one sample line per metric),
so a run's final counters can be diffed, scraped by standard tooling,
or archived next to the CSV timeseries.

The rendering is deterministic: metrics emit in sorted channel order,
values format via ``repr``, and no timestamps are attached — two runs
with the same seed produce byte-identical output.
"""

from __future__ import annotations

from repro.metrics.registry import MetricsRegistry, WindowedHistogram

__all__ = ["registry_to_prometheus"]


def _labels_suffix(channel: str) -> str:
    """The ``{k="v"}`` tail of a channel name ('' when unlabelled)."""
    brace = channel.find("{")
    return channel[brace:] if brace >= 0 else ""


def registry_to_prometheus(registry: MetricsRegistry,
                           exemplars: dict | None = None) -> str:
    """The registry snapshot in Prometheus text exposition format.

    Histograms expose their ``_count`` and ``_sum`` samples (the
    per-window envelope lives in the CSV timeseries instead).

    ``exemplars`` optionally maps histogram channels (e.g.
    ``op_latency{op="read"}``) to ``(trace_id, value)`` pairs, rendered
    as OpenMetrics exemplar annotations on the ``_count`` sample —
    ``... # {trace_id="17"} 0.31`` — linking the exported distribution
    to a concrete retained trace.
    """
    exemplars = exemplars or {}
    lines: list[str] = []
    seen_headers: set[str] = set()
    for metric in registry:
        if metric.name not in seen_headers:
            seen_headers.add(metric.name)
            lines.append(f"# TYPE {metric.name} {metric.kind}")
        suffix = _labels_suffix(metric.channel)
        if isinstance(metric, WindowedHistogram):
            count_line = (
                f"{metric.name}_count{suffix} {repr(float(metric.count))}")
            exemplar = exemplars.get(metric.channel)
            if exemplar is not None:
                trace_id, value = exemplar
                count_line += (f' # {{trace_id="{trace_id}"}} '
                               f"{repr(float(value))}")
            lines.append(count_line)
            lines.append(
                f"{metric.name}_sum{suffix} {repr(float(metric.total))}")
        else:
            lines.append(f"{metric.channel} {repr(float(metric.value))}")
    return "\n".join(lines) + ("\n" if lines else "")
