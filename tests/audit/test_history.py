"""The passive operation-history recorder."""

from dataclasses import replace

import pytest

from repro.audit.history import (PHASE_VERIFY, HistoryRecorder,
                                 max_acked_version)
from repro.sim.cluster import CLUSTER_M
from repro.sim.kernel import Simulator
from repro.stores.base import OpType
from repro.ycsb.runner import run_benchmark
from repro.ycsb.workload import WORKLOAD_RW


@pytest.fixture
def sim():
    return Simulator()


def test_begin_complete_round_trip(sim):
    recorder = HistoryRecorder(sim)
    token = recorder.begin(0, "insert", "k", version=7)
    sim.run(until=1.5)
    record = recorder.complete(token, ok=True)
    assert record.t_invoke == 0.0
    assert record.t_ack == 1.5
    assert record.ok and record.version == 7
    assert recorder.in_order() == [record]


def test_complete_overrides_version_for_reads(sim):
    recorder = HistoryRecorder(sim)
    token = recorder.begin(1, "read", "k")
    record = recorder.complete(token, ok=True, version=42)
    assert record.version == 42


def test_failure_keeps_error_kind(sim):
    recorder = HistoryRecorder(sim)
    token = recorder.begin(0, "insert", "k", version=1)
    record = recorder.complete(token, ok=False, error="fault")
    assert not record.ok
    assert record.error == "fault"
    assert recorder.to_payload()["failures_by_kind"] == {"fault": 1}


def test_note_op_needs_no_sim():
    recorder = HistoryRecorder(sim=None)
    recorder.note_op(3, "read", "k", 1.0, 1.2, False, None, None, True)
    assert len(recorder) == 1
    assert recorder.in_order()[0].session == 3


def test_views_group_by_key_and_session(sim):
    recorder = HistoryRecorder(sim)
    for session, key in ((0, "a"), (1, "b"), (0, "b")):
        token = recorder.begin(session, "read", key)
        recorder.complete(token, ok=True, version=0)
    assert sorted(recorder.per_key()) == ["a", "b"]
    assert len(recorder.per_key()["b"]) == 2
    assert sorted(recorder.per_session()) == [0, 1]


def test_acked_writes_excludes_failures_and_verify_phase(sim):
    recorder = HistoryRecorder(sim)
    ok_token = recorder.begin(0, "insert", "k", version=1)
    recorder.complete(ok_token, ok=True)
    bad_token = recorder.begin(0, "insert", "k", version=2)
    recorder.complete(bad_token, ok=False, error="fault")
    verify_token = recorder.begin(1, "read", "k", phase=PHASE_VERIFY)
    recorder.complete(verify_token, ok=True, version=1)
    acked = recorder.acked_writes()
    assert [r.version for r in acked] == [1]
    assert max_acked_version(recorder.in_order(), "k") == 1
    assert max_acked_version(recorder.in_order(), "missing") == 0


def test_load_driver_history_counts_its_writes():
    """A closed-loop history names its writes as the checkers do: every
    acked insert is an acked write."""
    recorder = HistoryRecorder(sim=None)
    run_benchmark("cassandra", WORKLOAD_RW, 2, records_per_node=300,
                  measured_ops=400, audit=recorder,
                  cluster_spec=replace(CLUSTER_M, connections_per_node=4))
    inserts = [r for r in recorder.records
               if r.op == OpType.INSERT.value and r.ok]
    assert len(inserts) > 100
    assert recorder.to_payload()["writes_acked"] == len(inserts)
    assert recorder.acked_writes() == sorted(
        inserts, key=lambda r: (r.t_invoke, r.index))
