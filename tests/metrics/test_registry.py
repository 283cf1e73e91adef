"""Unit tests for counter / gauge / probe / histogram semantics."""

import pytest

from repro.metrics import (
    Counter,
    MetricsRegistry,
    ProbeGauge,
    ProbeMeter,
    WindowedHistogram,
)
from repro.sim.kernel import Simulator


def make_registry():
    return MetricsRegistry(Simulator())


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = make_registry().counter("ops")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increments(self):
        counter = make_registry().counter("ops")
        with pytest.raises(ValueError):
            counter.inc(-1.0)


class TestProbes:
    def test_meter_and_gauge_pull_through_callable(self):
        registry = make_registry()
        state = {"total": 0.0}
        meter = registry.meter("bytes", lambda: state["total"])
        gauge = registry.probe("depth", lambda: state["total"] / 2)
        state["total"] = 10.0
        assert meter.value == 10.0
        assert gauge.value == 5.0
        assert isinstance(meter, ProbeMeter)
        assert isinstance(gauge, ProbeGauge)


class TestWindowedHistogram:
    def test_observations_land_in_their_windows(self):
        sim = Simulator()
        histogram = MetricsRegistry(sim).histogram("latency", window_s=1.0)
        histogram.observe(10.0)
        histogram.observe(30.0)
        sim.run(until=1.5)
        histogram.observe(100.0)
        stats = histogram.window_stats()
        assert len(stats) == 2
        start, end, count, mean, lo, hi = stats[0]
        assert (start, end, count) == (0.0, 1.0, 2)
        assert mean == pytest.approx(20.0)
        assert (lo, hi) == (10.0, 30.0)
        assert stats[1][2] == 1
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(140.0 / 3)

    def test_empty_histogram(self):
        histogram = make_registry().histogram("latency")
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.window_stats() == []


class TestRegistry:
    def test_same_identity_returns_same_instance(self):
        registry = make_registry()
        a = registry.counter("ops", node="server-0")
        b = registry.counter("ops", node="server-0")
        c = registry.counter("ops", node="server-1")
        assert a is b
        assert a is not c

    def test_kind_mismatch_raises(self):
        registry = make_registry()
        registry.counter("ops")
        with pytest.raises(ValueError):
            registry.probe("ops", lambda: 0.0)

    def test_iteration_is_sorted_by_channel(self):
        registry = make_registry()
        registry.counter("zeta")
        registry.probe("alpha", lambda: 0.0, node="b")
        registry.probe("alpha", lambda: 0.0, node="a")
        channels = [m.channel for m in registry]
        assert channels == sorted(channels)

    def test_channel_renders_sorted_labels(self):
        metric = make_registry().counter("ops", zone="z", node="n")
        assert metric.channel == 'ops{node="n",zone="z"}'

    def test_snapshot_rows(self):
        registry = make_registry()
        registry.counter("ops").inc(3)
        rows = registry.snapshot()
        assert rows == [("ops", "counter", 3.0)]

    def test_get_returns_registered_or_none(self):
        registry = make_registry()
        counter = registry.counter("ops", node="x")
        assert registry.get("ops", node="x") is counter
        assert registry.get("ops", node="y") is None
        assert len(registry) == 1

    def test_metric_types_exported(self):
        registry = make_registry()
        assert isinstance(registry.counter("a"), Counter)
        assert isinstance(registry.probe("b", lambda: 0.0), ProbeGauge)
        assert isinstance(registry.histogram("c"), WindowedHistogram)
