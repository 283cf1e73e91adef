"""Unit tests for APM metrics and measurements (Figure 2)."""

import pytest

from repro.core.metrics import (
    Measurement,
    MetricId,
    MonitoringLevel,
    measurement_key,
)
from repro.storage.record import APM_SCHEMA


@pytest.fixture
def metric():
    return MetricId("HostA", "AgentX", "ServletB", "AverageResponseTime")


class TestMetricId:
    def test_path_matches_figure_2(self, metric):
        assert metric.path == "HostA/AgentX/ServletB/AverageResponseTime"
        assert str(metric) == metric.path

    def test_hashable(self, metric):
        assert metric in {metric}


class TestMeasurementKey:
    def test_embeds_padded_timestamp(self, metric):
        key = measurement_key(metric, 1332988833)
        assert key.startswith(metric.path + "|")
        assert key.endswith("001332988833")

    def test_time_order_equals_lex_order(self, metric):
        keys = [measurement_key(metric, ts)
                for ts in (5, 50, 500, 5000, 50000)]
        assert keys == sorted(keys)


class TestMeasurement:
    def test_figure_2_example(self, metric):
        measurement = Measurement(metric, value=4, minimum=1, maximum=6,
                                  timestamp=1332988833, duration=15)
        assert measurement.key == measurement_key(metric, 1332988833)

    def test_value_must_be_within_bounds(self, metric):
        with pytest.raises(ValueError):
            Measurement(metric, value=10, minimum=1, maximum=6,
                        timestamp=0, duration=15)

    def test_negative_duration_rejected(self, metric):
        with pytest.raises(ValueError):
            Measurement(metric, value=2, minimum=1, maximum=6,
                        timestamp=0, duration=-1)

    def test_record_round_trip(self, metric):
        original = Measurement(metric, value=4.5, minimum=1.25,
                               maximum=6.75, timestamp=1332988833,
                               duration=15)
        key, row = original.to_row()
        assert key == original.key
        assert len(row) == APM_SCHEMA.field_count
        assert all(len(v) <= 10 for v in row)
        restored = Measurement.from_row(metric, row)
        assert restored.value == pytest.approx(original.value)
        assert restored.minimum == pytest.approx(original.minimum)
        assert restored.maximum == pytest.approx(original.maximum)
        assert restored.timestamp == original.timestamp
        assert restored.duration == original.duration


class TestMonitoringLevel:
    def test_levels_scale_rates(self):
        assert MonitoringLevel.BASIC.value == 1.0
        assert (MonitoringLevel.INCIDENT_TRIAGE.value
                > MonitoringLevel.TRANSACTION_TRACE.value
                > MonitoringLevel.BASIC.value)
