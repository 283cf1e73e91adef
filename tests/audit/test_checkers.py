"""Unit tests for the durability, session and staleness checkers."""

from repro.audit.checkers import (check_durability, check_sessions,
                                  check_staleness)
from repro.audit.history import PHASE_VERIFY, OpRecord


def _op(index, session, op, key, t, ok=True, version=None, phase="run",
        error=None):
    return OpRecord(index=index, session=session, op=op, key=key,
                    t_invoke=t, t_ack=t + 0.001, ok=ok, error=error,
                    version=version, phase=phase)


class TestDurability:
    def test_clean_history_is_ok(self):
        records = [
            _op(0, 0, "insert", "a", 0.1, version=1),
            _op(1, 9, "read", "a", 2.0, version=1, phase=PHASE_VERIFY),
        ]
        report = check_durability(records)
        assert report["ok"]
        assert report["acked_keys"] == 1
        assert not report["violations"]

    def test_version_shortfall_is_a_violation(self):
        records = [
            _op(0, 0, "insert", "a", 0.1, version=5),
            _op(1, 9, "read", "a", 2.0, version=3, phase=PHASE_VERIFY),
        ]
        report = check_durability(records)
        assert not report["ok"]
        [finding] = report["violations"]
        assert finding["expected_version"] == 5
        assert finding["observed_version"] == 3

    def test_failed_verify_read_is_a_violation(self):
        records = [
            _op(0, 0, "insert", "a", 0.1, version=5),
            _op(1, 9, "read", "a", 2.0, ok=False, error="fault",
                phase=PHASE_VERIFY),
        ]
        report = check_durability(records)
        assert not report["ok"]
        assert report["violations"][0]["read_error"] == "fault"

    def test_declared_loss_is_excused(self):
        records = [
            _op(0, 0, "insert", "a", 0.1, version=5),
            _op(1, 9, "read", "a", 2.0, version=0, phase=PHASE_VERIFY),
        ]
        report = check_durability(
            records, excused=lambda key: "hard shard loss")
        assert report["ok"]
        assert not report["violations"]
        [finding] = report["declared_losses"]
        assert finding["reason"] == "hard shard loss"

    def test_unverified_key_is_reported_not_failed(self):
        records = [_op(0, 0, "insert", "a", 0.1, version=1)]
        report = check_durability(records)
        assert report["ok"]
        assert report["unchecked_keys"] == ["a"]

    def test_failed_writes_claim_nothing(self):
        records = [
            _op(0, 0, "insert", "a", 0.1, ok=False, error="fault", version=9),
            _op(1, 9, "read", "a", 2.0, version=0, phase=PHASE_VERIFY),
        ]
        assert check_durability(records)["ok"]


class TestSessions:
    def test_read_your_writes_violation(self):
        records = [
            _op(0, 0, "insert", "a", 0.1, version=4),
            _op(1, 0, "read", "a", 0.2, version=2),
        ]
        report = check_sessions(records)
        assert not report["ok"]
        assert report["read_your_writes"][0]["written"] == 4

    def test_other_sessions_reads_unconstrained(self):
        records = [
            _op(0, 0, "insert", "a", 0.1, version=4),
            _op(1, 1, "read", "a", 0.2, version=0),
        ]
        assert check_sessions(records)["ok"]

    def test_monotonic_reads_violation(self):
        records = [
            _op(0, 2, "read", "a", 0.1, version=7),
            _op(1, 2, "read", "a", 0.2, version=3),
        ]
        report = check_sessions(records)
        assert not report["ok"]
        [finding] = report["monotonic_reads"]
        assert finding["previous"] == 7 and finding["observed"] == 3

    def test_clean_session_is_ok(self):
        records = [
            _op(0, 0, "insert", "a", 0.1, version=1),
            _op(1, 0, "read", "a", 0.2, version=1),
            _op(2, 0, "insert", "a", 0.3, version=2),
            _op(3, 0, "read", "a", 0.4, version=2),
        ]
        assert check_sessions(records)["ok"]


class TestStaleness:
    def test_fresh_reads_have_no_lag(self):
        records = [
            _op(0, 0, "insert", "a", 0.1, version=1),
            _op(1, 1, "read", "a", 0.5, version=1),
        ]
        report = check_staleness(records)
        assert report["stale_reads"] == 0
        assert report["max_lag"] == 0

    def test_lag_measured_against_acks_before_invocation(self):
        records = [
            _op(0, 0, "insert", "a", 0.1, version=3),
            _op(1, 0, "insert", "a", 0.2, version=8),
            _op(2, 1, "read", "a", 0.5, version=3),
        ]
        report = check_staleness(records)
        assert report["stale_reads"] == 1
        assert report["max_lag"] == 5

    def test_concurrent_write_never_counts_against_a_read(self):
        # The write acks after the read was invoked.
        write = OpRecord(index=0, session=0, op="insert", key="a",
                         t_invoke=0.4, t_ack=0.6, ok=True, version=9)
        read = _op(1, 1, "read", "a", 0.5, version=0)
        report = check_staleness([write, read])
        assert report["stale_reads"] == 0

    def test_per_phase_split(self):
        records = [
            _op(0, 0, "insert", "a", 0.1, version=2),
            _op(1, 1, "read", "a", 0.5, version=0),
            _op(2, 9, "read", "a", 2.0, version=0, phase=PHASE_VERIFY),
        ]
        report = check_staleness(records)
        assert report["per_phase"]["run"]["stale_reads"] == 1
        assert report["per_phase"]["verify"]["stale_reads"] == 1
        assert report["stale_fraction"] == 1.0
