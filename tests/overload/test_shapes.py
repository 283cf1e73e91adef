"""Unit tests for the time-varying arrival shapes (satellite of the
control-plane PR): rate math, the registry/parser, and the shaped
open-loop arrival path with its windowed timeline."""

import pytest

from repro.overload import (DiurnalShape, FlashCrowdShape, OverloadPolicy,
                            StepShape, parse_shape, run_overload_point)
from repro.overload.shapes import SHAPES
from repro.ycsb.runner import BenchmarkConfig
from repro.ycsb.workload import WORKLOAD_R


class TestRateMath:
    def test_diurnal_trough_at_origin(self):
        shape = DiurnalShape(period_s=20.0, trough_fraction=0.25)
        assert shape.rate_at(0.0, 1000.0) == pytest.approx(250.0)
        assert shape.rate_at(20.0, 1000.0) == pytest.approx(250.0)

    def test_diurnal_peak_at_half_period(self):
        shape = DiurnalShape(period_s=20.0, trough_fraction=0.25)
        assert shape.rate_at(10.0, 1000.0) == pytest.approx(1000.0)
        assert shape.peak_rate(1000.0) == pytest.approx(1000.0)

    def test_diurnal_is_periodic(self):
        shape = DiurnalShape(period_s=8.0, trough_fraction=0.5)
        for t in (0.3, 1.7, 3.9):
            assert shape.rate_at(t, 600.0) == pytest.approx(
                shape.rate_at(t + 8.0, 600.0))

    def test_flash_crowd_window(self):
        shape = FlashCrowdShape(at_s=5.0, duration_s=3.0, multiplier=4.0)
        assert shape.rate_at(4.9, 100.0) == pytest.approx(100.0)
        assert shape.rate_at(5.0, 100.0) == pytest.approx(400.0)
        assert shape.rate_at(7.9, 100.0) == pytest.approx(400.0)
        assert shape.rate_at(8.0, 100.0) == pytest.approx(100.0)
        assert shape.peak_rate(100.0) == pytest.approx(400.0)

    def test_step_is_permanent(self):
        shape = StepShape(at_s=2.0, factor=0.5)
        assert shape.rate_at(1.9, 100.0) == pytest.approx(100.0)
        assert shape.rate_at(2.0, 100.0) == pytest.approx(50.0)
        assert shape.rate_at(100.0, 100.0) == pytest.approx(50.0)


class TestRegistryAndParser:
    def test_registry_covers_three_shapes(self):
        assert set(SHAPES) == {"diurnal", "flash", "step"}

    def test_parse_bare_name_uses_defaults(self):
        shape = parse_shape("diurnal")
        assert isinstance(shape, DiurnalShape)
        assert shape.period_s == DiurnalShape().period_s

    def test_parse_with_aliases(self):
        shape = parse_shape("diurnal:period=40,trough=0.1")
        assert shape.period_s == 40.0
        assert shape.trough_fraction == 0.1

    def test_parse_flash(self):
        shape = parse_shape("flash:at=1,duration=2,multiplier=3")
        assert (shape.at_s, shape.duration_s, shape.multiplier) == (
            1.0, 2.0, 3.0)

    def test_parse_unknown_shape(self):
        with pytest.raises(ValueError, match="unknown arrival shape"):
            parse_shape("sawtooth")

    def test_parse_unknown_key(self):
        with pytest.raises(ValueError, match="bad shape parameter"):
            parse_shape("step:wat=2")

    def test_parse_bad_value(self):
        with pytest.raises(ValueError):
            parse_shape("step:at=soon")


def _config():
    return BenchmarkConfig(
        store="redis", workload=WORKLOAD_R, n_nodes=1,
        records_per_node=500, seed=7,
        overload=OverloadPolicy(max_queue=16, deadline_s=0.25),
    )


class TestShapedOpenLoop:
    def test_point_records_shape_and_timeline(self):
        shape = StepShape(at_s=0.5, factor=2.0)
        point = run_overload_point(
            _config(), 200.0, duration_s=1.0, warmup_s=0.0,
            slo_s=0.25, shape=shape)
        assert point.to_dict()["shape"] == shape.to_dict()

    def test_step_doubles_measured_arrivals(self):
        from repro.overload.openloop import _OpenLoopRun

        run = _OpenLoopRun(_config(), 200.0, 1.0, 0.0, 0.25,
                           shape=StepShape(at_s=0.5, factor=2.0),
                           timeline_s=0.5)
        run.run()
        windows = run.timeline()
        assert len(windows) >= 2
        # ~100 arrivals in the first half-second, ~200 in the second.
        assert windows[1]["arrivals"] > 1.5 * windows[0]["arrivals"]

    def test_unshaped_run_has_no_timeline(self):
        from repro.overload.openloop import _OpenLoopRun

        run = _OpenLoopRun(_config(), 100.0, 0.2, 0.0, 0.25)
        run.run()
        with pytest.raises(ValueError):
            run.timeline()
