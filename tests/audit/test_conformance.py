"""Six-store durability conformance under chaos.

Every store must keep every acknowledged write readable once faults
heal — or account for the shortfall through the chaos controller's
declared-loss manifest (client-sharded stores losing a never-restarted
shard by design).
"""

import pytest

from repro.audit.harness import (STANDARD_FAULTS, AuditScenario,
                                 run_audit_scenario)
from repro.stores.registry import STORE_NAMES


@pytest.mark.parametrize("store", STORE_NAMES)
def test_acked_writes_survive_crash_restart(store):
    report = run_audit_scenario(AuditScenario(store=store, fault="crash"))
    assert report.ok, report.render()
    assert report.durability["violations"] == []
    # A crash that restarts loses nothing by design either.
    assert report.durability["declared_losses"] == []
    assert report.history["writes_acked"] > 0


@pytest.mark.parametrize("store", STORE_NAMES)
def test_hard_crash_losses_are_declared_not_violated(store):
    report = run_audit_scenario(
        AuditScenario(store=store, fault="crash_hard"))
    assert report.ok, report.render()
    assert report.durability["violations"] == []
    if store in ("redis", "mysql", "voltdb"):
        # Single-copy stores: the dead shard's keys are manifest-excused.
        assert report.loss_manifest, "expected a declared-loss manifest"
        assert report.durability["declared_losses"]
    if store == "hbase":
        # Regions reassign with their engines intact; nothing is lost.
        assert report.durability["declared_losses"] == []


@pytest.mark.parametrize("fault",
                         [f for f in STANDARD_FAULTS if f != "none"])
def test_gray_and_combo_faults_stay_consistent(fault):
    """The full fault vocabulary on one representative store."""
    report = run_audit_scenario(
        AuditScenario(store="cassandra", fault=fault))
    assert report.ok, report.render()


def test_healthy_run_has_no_failures_and_full_coverage():
    report = run_audit_scenario(
        AuditScenario(store="redis", fault="none"))
    assert report.ok
    assert report.history["failures_by_kind"] == {}
    assert report.durability["unchecked_keys"] == []
    assert report.staleness["stale_reads"] == 0


def test_unknown_fault_rejected_at_build_time():
    with pytest.raises(ValueError, match="unknown fault scenario"):
        run_audit_scenario(
            AuditScenario(store="redis", fault="meteor-strike"))


def test_unreplicated_stores_reject_quorum_knobs():
    # Rejected when the scenario is built, before anything runs.
    with pytest.raises(ValueError, match="no replication knobs"):
        AuditScenario(store="redis", replication_factor=2,
                      required_writes=2, required_reads=1)
    with pytest.raises(ValueError, match="consistency levels"):
        AuditScenario(store="cassandra", replication_factor=4,
                      required_writes=2)


def test_report_export_is_deterministic():
    scenario = AuditScenario(store="voldemort", fault="combo")
    first = run_audit_scenario(scenario).to_dict()
    second = run_audit_scenario(scenario).to_dict()
    assert first == second
