"""Mutation smoke test: a seeded correctness bug must trip the auditor.

The mutant lives here, not in ``src/``: ``CassandraStore._replay_hints``
is replaced by a variant that drops queued hinted handoffs instead of
replaying them when a node restarts (the audit harness runs in-process,
so a monkeypatch reaches it).  Under a crash that heals only after the
workload's last write (``crash_late``), hint replay is the only
mechanism that can repair the restarted replica — so the broken build
must surface durability violations, and the healthy build must stay
clean.  An auditor that passes both builds tests nothing.
"""

import pytest

from repro.audit.harness import AuditScenario, run_audit_scenario
from repro.stores.cassandra import CassandraStore

SCENARIO = AuditScenario(store="cassandra", fault="crash_late",
                         replication_factor=2, required_writes=1,
                         required_reads=1)


@pytest.fixture
def dropped_hints(monkeypatch):
    """The mutant: hints are discarded on restart; returns the drops."""
    dropped = []
    monkeypatch.setattr(
        CassandraStore, "_replay_hints",
        lambda store, index, pending: dropped.extend(pending))
    return dropped


def test_healthy_hint_replay_passes():
    report = run_audit_scenario(SCENARIO)
    assert report.ok, report.render()
    assert report.durability["violations"] == []


def test_broken_hint_replay_is_flagged(dropped_hints):
    report = run_audit_scenario(SCENARIO)
    assert dropped_hints, "the scenario queued no hints to drop"
    assert not report.ok, "auditor missed the seeded hint-replay bug"
    violations = report.durability["violations"]
    assert violations, report.render()
    for finding in violations:
        assert finding["observed_version"] < finding["expected_version"]
    # Violations trip the flight recorder for post-mortem context.
    assert report.flight_recorder["dumps"]


def test_mutation_leaves_unrelated_faults_clean(dropped_hints):
    """The mutant only matters when hints exist to replay."""
    report = run_audit_scenario(
        AuditScenario(store="cassandra", fault="none",
                      replication_factor=2))
    assert report.ok, report.render()
    assert dropped_hints == []
