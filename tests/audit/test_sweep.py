"""The quorum R/W/N staleness sweep and its two pinned claims."""

import pytest

from repro.audit.sweep import QuorumSweep, render_sweep, run_quorum_sweep


@pytest.fixture(scope="module")
def payload():
    return run_quorum_sweep(QuorumSweep())


def test_overlapping_quorums_see_zero_stale_reads(payload):
    assert payload["pins"]["overlap_zero_stale"], render_sweep(payload)
    for point in payload["points"]:
        if point["quorums_intersect"]:
            assert point["stale_reads"] == 0
            assert point["linearizability_violations"] == 0


def test_r1w1_shows_measurable_staleness_under_partition(payload):
    assert payload["pins"]["r1w1_staleness"], render_sweep(payload)
    [weakest] = [p for p in payload["points"]
                 if p["r"] == 1 and p["w"] == 1]
    assert weakest["stale_reads"] > 0
    assert weakest["max_lag"] > 0
    # Stale reads break register semantics; the checker must notice.
    assert weakest["linearizability_violations"] > 0
    assert payload["ok"]


def test_export_is_byte_identical_across_reruns_and_jobs(payload):
    rerun = run_quorum_sweep(QuorumSweep())
    parallel = run_quorum_sweep(QuorumSweep(), jobs=2)
    assert payload == rerun
    assert payload == parallel


def test_render_mentions_both_pins(payload):
    text = render_sweep(payload)
    assert "R+W>N zero stale reads: HOLDS" in text
    assert "R=W=1 measurable staleness under partition: HOLDS" in text


def test_voldemort_sweep_pins_hold_too():
    sweep = QuorumSweep(store="voldemort", replication_factor=3)
    payload = run_quorum_sweep(sweep)
    assert payload["ok"], render_sweep(payload)
