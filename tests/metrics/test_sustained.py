"""Unit tests for the sustained-throughput verifier."""

import pytest

from repro.faults.availability import AvailabilityTimeline
from repro.metrics import verify_sustained


def timeline_with_rates(rates, window_s=1.0, per_window=100):
    """One timeline window per entry, scaled to the requested rate."""
    timeline = AvailabilityTimeline(window_s)
    for index, rate in enumerate(rates):
        count = int(round(rate * window_s))
        for k in range(count):
            timeline.record(index * window_s + (k + 0.5) * window_s / count,
                            error=False)
    return timeline


def test_flat_timeline_is_sustained():
    timeline = timeline_with_rates([100, 100, 100, 100])
    verdict = verify_sustained(timeline, 0.0, 4.0, subwindows=4)
    assert verdict.sustained
    assert verdict.degradation == pytest.approx(0.0)
    assert verdict.peak == pytest.approx(100.0)
    assert len(verdict.windows) == 4


def test_decaying_timeline_is_unsustainable():
    timeline = timeline_with_rates([100, 90, 60, 40])
    verdict = verify_sustained(timeline, 0.0, 4.0,
                               subwindows=4, tolerance=0.25)
    assert not verdict.sustained
    assert verdict.floor == pytest.approx(40.0)
    assert verdict.degradation == pytest.approx(0.6)
    assert "UNSUSTAINABLE" in verdict.render()


def test_dip_within_tolerance_passes():
    timeline = timeline_with_rates([100, 90, 95, 100])
    verdict = verify_sustained(timeline, 0.0, 4.0,
                               subwindows=4, tolerance=0.25)
    assert verdict.sustained
    assert verdict.degradation == pytest.approx(0.1)
    assert "SUSTAINED" in verdict.render()


def test_window_snaps_inward_to_whole_buckets():
    # Ops stop at t=6; asking about [0.3, 6.7] must not read the empty
    # tail (or the partially-covered head) as a throughput collapse.
    timeline = timeline_with_rates([100] * 6)
    verdict = verify_sustained(timeline, 0.3, 6.7, subwindows=4)
    assert verdict.windows[0].start == pytest.approx(1.0)
    assert verdict.windows[-1].end == pytest.approx(6.0)
    assert verdict.sustained


def test_short_window_keeps_raw_bounds():
    # Too few whole buckets to snap: raw bounds are kept.
    timeline = timeline_with_rates([100, 100, 100], window_s=1.0)
    verdict = verify_sustained(timeline, 0.4, 2.6, subwindows=4)
    assert verdict.windows[0].start == pytest.approx(0.4)
    assert verdict.windows[-1].end == pytest.approx(2.6)


def test_subwindows_narrower_than_buckets_resolve():
    # 4 sub-windows over 2 one-second buckets: each is half a bucket,
    # which counting only the buckets fully inside could never resolve.
    timeline = timeline_with_rates([100, 100], window_s=1.0)
    verdict = verify_sustained(timeline, 0.0, 2.0, subwindows=4)
    assert all(w.throughput == pytest.approx(100.0)
               for w in verdict.windows)


def test_validation_errors():
    timeline = timeline_with_rates([100, 100])
    with pytest.raises(ValueError):
        verify_sustained(timeline, 0.0, 2.0, subwindows=1)
    with pytest.raises(ValueError):
        verify_sustained(timeline, 0.0, 2.0, tolerance=1.5)
    with pytest.raises(ValueError):
        verify_sustained(timeline, 2.0, 2.0)


def test_idle_timeline_reports_zero_without_dividing():
    timeline = AvailabilityTimeline(1.0)
    verdict = verify_sustained(timeline, 0.0, 4.0)
    assert verdict.peak == 0.0
    assert verdict.degradation == 0.0
    assert verdict.sustained


def test_payload_round_trip():
    timeline = timeline_with_rates([100, 80, 100, 100])
    verdict = verify_sustained(timeline, 0.0, 4.0)
    payload = verdict.to_payload()
    assert payload["sustained"] == verdict.sustained
    assert payload["peak"] == verdict.peak
    assert len(payload["windows"]) == len(verdict.windows)
