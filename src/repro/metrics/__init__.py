"""Simulation-time telemetry: registry, sampler, saturation analysis.

The metrics subsystem answers the horizontal question the span tracer
(:mod:`repro.trace`) cannot: *what was every node's CPU/disk/NIC doing
at t=40s, and which resource bound the throughput?*  It is built from
four pieces:

* :mod:`repro.metrics.registry` — counters, pull-probes and
  windowed histograms, all stamped with simulated time;
* :mod:`repro.metrics.timeseries` — the shared fixed-window series
  representation (also used by the fault subsystem's availability
  timelines) with one canonical CSV layout;
* :mod:`repro.metrics.sampler` — a simulation process snapshotting the
  registry into the series at a fixed simulated cadence;
* :mod:`repro.metrics.saturation` / :mod:`repro.metrics.sustained` —
  the two analyses the paper's methodology rests on: naming the binding
  resource, and verifying the measured throughput was actually
  *sustained* over the window.

Like tracing, the layer is zero-cost when disabled: instrumentation is
pull-based (probes over counters components already keep), and the few
push sites in store coordinators are behind ``metrics is not None``
guards.
"""

from repro.metrics.registry import (
    Counter,
    Metric,
    MetricsRegistry,
    ProbeGauge,
    ProbeMeter,
    WindowedHistogram,
)
from repro.metrics.timeseries import SeriesWindow, WindowedSeries
from repro.metrics.sampler import MetricsSampler
from repro.metrics.instrument import (
    instrument_cluster,
    instrument_node,
    node_channel,
)
from repro.metrics.saturation import (
    NodeUtilization,
    ResourceUtilization,
    SaturationReport,
    SaturationVerdict,
    analyze_saturation,
)
from repro.metrics.sustained import (
    SubWindow,
    SustainedVerdict,
    verify_sustained,
)
from repro.metrics.report import MetricsReport

__all__ = [
    "Counter",
    "Metric",
    "MetricsRegistry",
    "MetricsReport",
    "MetricsSampler",
    "NodeUtilization",
    "ProbeGauge",
    "ProbeMeter",
    "ResourceUtilization",
    "SaturationReport",
    "SaturationVerdict",
    "SeriesWindow",
    "SubWindow",
    "SustainedVerdict",
    "WindowedHistogram",
    "WindowedSeries",
    "analyze_saturation",
    "instrument_cluster",
    "instrument_node",
    "node_channel",
    "verify_sustained",
]
