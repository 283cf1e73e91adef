"""Tests for availability timelines."""

import pytest

from repro.faults.availability import AvailabilityTimeline


def make_timeline():
    timeline = AvailabilityTimeline(window_s=1.0)
    # Window [0,1): 4 ops, 0 errors; [1,2): 4 ops, 2 errors; [2,3): idle;
    # [3,4): 2 ops, 2 errors.
    for t in (0.1, 0.3, 0.5, 0.9):
        timeline.record(t, error=False)
    for t, err in ((1.2, True), (1.4, False), (1.6, True), (1.8, False)):
        timeline.record(t, err)
    timeline.record(3.5, error=True)
    timeline.record(3.6, error=True)
    return timeline


def test_windows_are_contiguous_including_idle_gaps():
    windows = make_timeline().windows()
    assert len(windows) == 4
    assert [w.ops for w in windows] == [4, 4, 0, 2]
    assert [w.errors for w in windows] == [0, 2, 0, 2]
    assert windows[2].throughput == 0.0
    assert windows[2].error_rate == 0.0  # idle, not failing


def test_window_rates():
    windows = make_timeline().windows()
    assert windows[1].error_rate == 0.5
    assert windows[1].throughput == 4.0
    assert windows[1].goodput == 2.0
    assert windows[3].error_rate == 1.0
    assert windows[3].goodput == 0.0


def test_aggregates_between():
    timeline = make_timeline()
    assert timeline.error_rate_between(0.0, 1.0) == 0.0
    assert timeline.error_rate_between(1.0, 2.0) == 0.5
    # Pooled across [0, 2): 2 errors / 8 ops.
    assert timeline.error_rate_between(0.0, 2.0) == pytest.approx(0.25)
    assert timeline.throughput_between(0.0, 2.0) == pytest.approx(4.0)
    # An empty selection is 0, not a division error.
    assert timeline.error_rate_between(10.0, 11.0) == 0.0
    assert timeline.throughput_between(10.0, 11.0) == 0.0


def test_to_text_is_canonical():
    text = make_timeline().to_text()
    lines = text.splitlines()
    assert lines[0] == "0.000000 1.000000 4 0"
    assert lines[1] == "1.000000 2.000000 4 2"
    assert lines[2] == "2.000000 3.000000 0 0"
    assert lines[3] == "3.000000 4.000000 2 2"
    # Identical recordings render identically (the determinism contract).
    assert make_timeline().to_text() == text


def test_empty_timeline():
    timeline = AvailabilityTimeline()
    assert timeline.windows() == []
    assert timeline.to_text() == ""
    assert timeline.render() == "(no operations recorded)"


def test_render_marks_fault_windows():
    rendered = make_timeline().render(fault_windows=[(1.5, 2.5)])
    lines = rendered.splitlines()
    # Header + 4 windows + legend.
    assert len(lines) == 6
    assert "*" in lines[2] and "*" in lines[3]
    assert "*" not in lines[1] and "*" not in lines[4]
    assert lines[-1].startswith("(*")


def test_window_width_validation():
    with pytest.raises(ValueError):
        AvailabilityTimeline(window_s=0.0)
    with pytest.raises(ValueError):
        AvailabilityTimeline(window_s=-1.0)
