"""Unit tests for the bounded exemplar grids."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.exemplars import (
    ExemplarStore,
    bucket_lower_s,
    latency_bucket,
)
from repro.ycsb.stats import LatencyHistogram


class TestBucketGeometry:
    def test_matches_latency_histogram(self):
        """Same geometry as the stats histogram, bucket for bucket."""
        histogram = LatencyHistogram()
        for latency in (1e-7, 1e-6, 3.7e-5, 1e-3, 0.25, 10.0, 1e4):
            histogram_bucket = histogram.bucket(latency)
            assert latency_bucket(latency) == histogram_bucket

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e5))
    def test_matches_latency_histogram_over_the_range(self, latency):
        """The exemplar grid's bucket is the histogram's: below the
        first edge, on every edge in between and past the last one."""
        assert latency_bucket(latency) == LatencyHistogram().bucket(latency)

    def test_lower_edge_brackets_the_latency(self):
        for latency in (2e-6, 5e-4, 0.05, 1.0):
            bucket = latency_bucket(latency)
            assert bucket_lower_s(bucket) <= latency
        assert bucket_lower_s(0) == 0.0


class TestHistogramGrid:
    def test_first_k_per_cell(self):
        store = ExemplarStore(window_s=1.0, per_bucket=2)
        latency = 0.01  # same bucket each time
        assert store.offer(0.1, "read", latency, 1)
        assert store.offer(0.2, "read", latency, 2)
        assert not store.offer(0.3, "read", latency, 3)  # cell full
        assert store.offer(1.5, "read", latency, 4)  # next window
        assert store.offered == 4
        assert store.retained == 3

    def test_cells_split_by_op_and_bucket(self):
        store = ExemplarStore(window_s=1.0, per_bucket=1)
        assert store.offer(0.1, "read", 0.01, 1)
        assert store.offer(0.1, "write", 0.01, 2)  # other op
        assert store.offer(0.1, "read", 5.0, 3)  # other bucket
        assert store.trace_ids() == [1, 2, 3]

    def test_prometheus_exemplars_keeps_slowest_per_op(self):
        store = ExemplarStore(window_s=1.0, per_bucket=4)
        store.offer(0.1, "read", 0.01, 1)
        store.offer(0.2, "read", 0.90, 2)
        store.offer(0.3, "read", 0.05, 3)
        store.offer(0.1, "write", 0.02, 4)
        exemplars = store.prometheus_exemplars()
        assert exemplars['op_latency{op="read"}'] == (2, 0.90)
        assert exemplars['op_latency{op="write"}'] == (4, 0.02)

    def test_csv_layout(self):
        store = ExemplarStore(window_s=0.5, per_bucket=1)
        store.offer(0.6, "read", 0.01, 7)
        text = store.to_csv()
        lines = text.splitlines()
        assert lines[0] == ("window_start,window_end,op,bucket_lower_s,"
                            "trace_id,latency_s")
        assert lines[1].startswith("0.500000,1.000000,read,")
        assert lines[1].endswith(",7,0.01")


class TestViolationGrid:
    def test_first_k_per_cell(self):
        store = ExemplarStore(window_s=1.0, per_violation=2)
        assert store.offer_violation(0.1, "latency", 1)
        assert store.offer_violation(0.2, "latency", 2)
        assert not store.offer_violation(0.3, "latency", 3)

    def test_violating_filters_by_window_overlap(self):
        store = ExemplarStore(window_s=1.0)
        store.offer_violation(0.5, "latency", 1)  # window [0, 1)
        store.offer_violation(1.5, "latency", 2)  # window [1, 2)
        store.offer_violation(2.5, "latency", 3)  # window [2, 3)
        store.offer_violation(1.5, "availability", 9)  # other SLO
        assert store.violating("latency", 1.0, 2.0) == [2]
        assert store.violating("latency", 0.0, 3.0) == [1, 2, 3]
        assert store.violating("latency", 3.0, 4.0) == []

    def test_limit_keeps_most_recent(self):
        store = ExemplarStore(window_s=1.0)
        for tid, t in enumerate((0.5, 1.5, 2.5, 3.5)):
            store.offer_violation(t, "latency", tid)
        assert store.violating("latency", 0.0, 4.0, limit=2) == [2, 3]

    def test_payload_is_sorted_and_complete(self):
        store = ExemplarStore(window_s=1.0)
        store.offer(1.5, "write", 0.01, 2)
        store.offer(0.5, "read", 0.01, 1)
        store.offer_violation(0.5, "latency", 1)
        payload = store.to_payload()
        assert [cell["t0"] for cell in payload["buckets"]] == [0.0, 1.0]
        assert payload["violations"] == [
            {"t0": 0.0, "slo": "latency", "trace_ids": [1]}]
