"""Unit tests for the closed-loop client threads."""

import inspect
import random

import pytest

from repro.storage.record import APM_SCHEMA
from repro.stores.base import OpType
from repro.ycsb import client
from repro.ycsb.client import ClientThread, RunControl
from repro.ycsb.generator import KeySequence, generate_record
from repro.ycsb.runner import BenchmarkConfig, Deployment
from repro.ycsb.stats import RunStats
from repro.ycsb.workload import WORKLOAD_R, WORKLOAD_RS


class TestRunControl:
    def test_measurement_window_opens_after_warmup(self):
        control = RunControl(warmup_ops=3, measured_ops=5)
        stats = RunStats()
        for i in range(3):
            control.note_completion(stats, now=float(i))
            assert control.done is False
        assert control.measuring
        assert stats.started_at == 2.0

    def test_done_after_measured_ops(self):
        control = RunControl(warmup_ops=2, measured_ops=3)
        stats = RunStats()
        for i in range(5):
            control.note_completion(stats, now=float(i))
        assert control.done
        assert stats.finished_at == 4.0

    def test_completion_counter(self):
        control = RunControl(warmup_ops=1, measured_ops=1)
        stats = RunStats()
        control.note_completion(stats, 0.0)
        control.note_completion(stats, 1.0)
        assert control.completed == 2


def build_thread(workload, control, stats, seed=1):
    """One thread on a 2-node Redis deployment of 200 records."""
    deployment = Deployment(BenchmarkConfig(
        store="redis", workload=workload, n_nodes=2, records_per_node=100))
    session = deployment.sessions()[0]
    rng = random.Random(seed)
    return ClientThread(session, deployment, deployment.chooser(rng), stats,
                        control, rng)


def run_thread(thread):
    sim = thread.deployment.sim
    sim.run(until=sim.process(thread.run()))


class TestClientThread:

    def test_runs_until_control_done(self):
        stats = RunStats()
        control = RunControl(warmup_ops=10, measured_ops=50)
        thread = build_thread(WORKLOAD_R, control, stats)
        run_thread(thread)
        assert control.done
        assert stats.operations == 50

    def test_op_mix_matches_workload(self):
        stats = RunStats()
        control = RunControl(warmup_ops=0, measured_ops=400)
        thread = build_thread(WORKLOAD_R, control, stats)
        run_thread(thread)
        reads = stats.histogram(OpType.READ).count
        inserts = stats.histogram(OpType.INSERT).count
        assert reads + inserts == 400
        assert 0.90 <= reads / 400 <= 0.99

    def test_scan_workload_records_scan_latencies(self):
        stats = RunStats()
        control = RunControl(warmup_ops=0, measured_ops=100)
        thread = build_thread(WORKLOAD_RS, control, stats)
        run_thread(thread)
        assert stats.histogram(OpType.SCAN).count > 20

    def test_inserts_consume_shared_sequence(self):
        stats = RunStats()
        control = RunControl(warmup_ops=0, measured_ops=100)
        thread = build_thread(WORKLOAD_RS, control, stats)
        before = thread.deployment.sequence.next_value
        run_thread(thread)
        inserted = thread.deployment.sequence.next_value - before
        assert inserted == stats.histogram(OpType.INSERT).count

    def test_latencies_are_positive(self):
        stats = RunStats()
        control = RunControl(warmup_ops=0, measured_ops=50)
        thread = build_thread(WORKLOAD_R, control, stats)
        run_thread(thread)
        assert stats.histogram(OpType.READ).min > 0


def test_deployment_draw_and_attempt_wrap_no_frame():
    """Both drivers call them on every op: they return what they call,
    so neither adds a generator level every kernel resume pays for."""
    assert not inspect.isgeneratorfunction(Deployment.draw)
    assert not inspect.isgeneratorfunction(Deployment.attempt)


class _Fixed:
    """A chooser that always picks ``number``."""

    def __init__(self, number):
        self.number = number

    def next_record_number(self):
        return self.number


@pytest.mark.parametrize("op", [OpType.INSERT, OpType.UPDATE])
def test_a_write_carries_the_generated_row(monkeypatch, op):
    """An INSERT or UPDATE draws its record through the module's
    ``generate_record`` (the name a traced run wraps) and carries the
    very row it made: the fields of record 41, in schema order."""
    made = []

    def recorded(*args):
        made.append(generate_record(*args))
        return made[-1]

    monkeypatch.setattr(client, "generate_record", recorded)
    sequence = KeySequence(41)
    drawn = client.draw_operation([(op, 1.0)], random.Random(5),
                                  _Fixed(41), sequence, APM_SCHEMA, 9)
    assert made == [generate_record(41, APM_SCHEMA)]
    key, row = made[0]
    assert drawn == (op, key, row, 0)
    assert drawn[2] is row and type(drawn[2]) is tuple
