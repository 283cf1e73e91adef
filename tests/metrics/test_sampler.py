"""Tests for the periodic metrics sampler."""

import pytest

from repro.metrics import MetricsRegistry, MetricsSampler
from repro.sim.kernel import Simulator


def drive(interval_s, schedule, until):
    """Run a sim with a counter bumped at the scheduled times."""
    sim = Simulator()
    registry = MetricsRegistry(sim)
    counter = registry.counter("ops")
    depth = [0.0]
    registry.probe("depth", lambda: depth[0])
    sampler = MetricsSampler(registry, interval_s)
    sampler.start()

    def worker():
        last = 0.0
        for when, amount in schedule:
            yield sim.timeout(when - last)
            last = when
            counter.inc(amount)
            depth[0] = amount

    sim.process(worker(), name="worker")
    sim.run(until=until)
    sampler.close()
    return sampler


def test_counters_become_per_window_deltas():
    sampler = drive(1.0, [(0.5, 3), (1.5, 4), (2.5, 5)], until=3.0)
    series = sampler.series
    assert series.window_at(0).get("ops") == 3.0
    assert series.window_at(1).get("ops") == 4.0
    assert series.window_at(2).get("ops") == 5.0
    # Deltas sum back to the cumulative total.
    assert series.sum_between("ops", 0.0, 3.0) == pytest.approx(12.0)


def test_gauges_become_point_samples():
    sampler = drive(1.0, [(0.5, 3), (1.5, 4)], until=3.0)
    series = sampler.series
    assert series.window_at(0).get("depth") == 3.0
    assert series.window_at(1).get("depth") == 4.0
    assert series.window_at(2).get("depth") == 4.0  # held level


def test_close_captures_partial_final_window():
    sampler = drive(1.0, [(0.5, 3), (2.2, 7)], until=2.5)
    # Window 2 never saw a full tick; close() must still record it.
    assert sampler.series.window_at(2).get("ops") == 7.0


def test_close_is_idempotent():
    sampler = drive(1.0, [(0.5, 1)], until=2.0)
    before = sampler.samples_taken
    sampler.close()
    assert sampler.samples_taken == before


def test_no_drift_with_fractional_interval():
    # 0.1 is inexact in binary; tick counting must keep indices exact.
    schedule = [(k * 0.1 + 0.05, 1) for k in range(30)]
    sampler = drive(0.1, schedule, until=3.0)
    values = [sampler.series.window_at(i).get("ops") for i in range(30)]
    assert values == [1.0] * 30


def test_interval_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        MetricsSampler(MetricsRegistry(sim), 0.0)
