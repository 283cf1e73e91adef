"""The audit layer must be passive.

Attaching a :class:`HistoryRecorder` to the benchmark runner (or to the
audit harness's own driver) must not change what the run does: same
config content key, same operation counts, same measurements.
"""

from repro.audit import HistoryRecorder
from repro.audit.harness import AuditScenario, run_audit_scenario
from repro.ycsb.runner import BenchmarkConfig, run_benchmark, run_config
from repro.ycsb.workload import WORKLOADS


def small_config(**overrides):
    return dict(records_per_node=1000, measured_ops=400, warmup_ops=50,
                seed=42, **overrides)


def test_audited_benchmark_matches_bare_run():
    recorder = HistoryRecorder(sim=None)
    audited = run_benchmark("redis", WORKLOADS["RW"], 1, audit=recorder,
                            **small_config())
    bare = run_benchmark("redis", WORKLOADS["RW"], 1, **small_config())
    assert audited.stats.operations == bare.stats.operations
    assert audited.throughput_ops == bare.throughput_ops
    assert audited.stats.errors == bare.stats.errors


def test_audit_does_not_change_config_identity():
    config = BenchmarkConfig(store="redis", workload=WORKLOADS["RW"],
                             n_nodes=1, **small_config())
    recorder = HistoryRecorder(sim=None)
    audited = run_config(config, audit=recorder)
    bare_config = BenchmarkConfig(store="redis", workload=WORKLOADS["RW"],
                                  n_nodes=1, **small_config())
    assert audited.config.content_key() == bare_config.content_key()
    # And the recorder really observed the run it rode along with.
    assert len(recorder) > 0
    assert all(r.t_ack >= r.t_invoke for r in recorder.in_order())


def test_audit_scenario_results_equal_unrecorded_world():
    """The harness's recorded history carries zero simulated cost: two
    identical scenarios agree to the last acknowledgement time."""
    scenario = AuditScenario(store="redis", fault="crash")
    first = run_audit_scenario(scenario)
    second = run_audit_scenario(scenario)
    assert first.to_dict() == second.to_dict()
    assert first.history == second.history


def test_closed_loop_recorder_sees_what_the_run_measured():
    """The runner's audit hook records acks as acks and failures with
    their kind — the checkers are blind if every op looks failed."""
    recorder = HistoryRecorder(sim=None)
    # A timed run with no warm-up measures every op completed before the
    # clock ran out: the recorder's first ``operations`` records.
    result = run_benchmark("redis", WORKLOADS["RW"], 1, audit=recorder,
                           records_per_node=1000, duration_s=0.05,
                           warmup_ops=0, seed=42)
    stats = result.stats
    window = recorder.records[:stats.operations]
    assert stats.errors > 0, "redis/RW must fail some inserts (OOM)"
    assert sum(r.ok for r in window) == stats.operations - stats.errors
    assert all(r.error is None for r in window if r.ok)
    kinds = {}
    for record in window:
        if not record.ok:
            kinds[record.error] = kinds.get(record.error, 0) + 1
    assert kinds == {kind: stats.error_kind_total(kind) for kind in kinds}
    assert None not in kinds


def test_closed_loop_history_is_in_invocation_order():
    """The runner's hook numbers a record when it is acked, so on a
    closed-loop history ``in_order`` must sort by invocation time, not
    by that number — the checkers read it as invocation order."""
    recorder = HistoryRecorder(sim=None)
    run_benchmark("cassandra", WORKLOADS["RW"], 2, audit=recorder,
                  **small_config())
    ordered = recorder.in_order()
    assert len(ordered) == len(recorder)
    assert all(a.t_invoke <= b.t_invoke
               for a, b in zip(ordered, ordered[1:]))
