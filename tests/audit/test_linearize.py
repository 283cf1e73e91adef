"""Deterministic cases for the per-key linearizability checker."""

import math

import pytest

from repro.audit.history import OpRecord
from repro.audit.linearize import (RegisterOp, check_linearizable,
                                   history_to_register_ops)

from tests.audit.reference_linearize import brute_force_linearizable


def w(inv, resp, value, ok=True):
    return RegisterOp(inv=inv, resp=resp, is_write=True, value=value, ok=ok)


def r(inv, resp, value):
    return RegisterOp(inv=inv, resp=resp, is_write=False, value=value)


class TestCheckLinearizable:
    def test_empty_history(self):
        assert check_linearizable([]) is True

    def test_sequential_history(self):
        assert check_linearizable([w(0, 1, 5), r(2, 3, 5)]) is True

    def test_read_of_initial_value(self):
        assert check_linearizable([r(0, 1, 0)]) is True

    def test_stale_read_after_write_completes(self):
        # The write finished before the read began; 0 is no longer legal.
        assert check_linearizable([w(0, 1, 5), r(2, 3, 0)]) is False

    def test_concurrent_read_may_see_either_value(self):
        ops = [w(0, 2, 5), r(1, 3, 0)]
        assert check_linearizable(ops) is True
        ops = [w(0, 2, 5), r(1, 3, 5)]
        assert check_linearizable(ops) is True

    def test_two_reads_cannot_flip_order(self):
        # Sequential reads observing new-then-old is not linearizable.
        ops = [w(0, 10, 5), r(1, 2, 5), r(3, 4, 0)]
        assert check_linearizable(ops) is False

    def test_failed_write_may_take_effect(self):
        ops = [w(0, math.inf, 7, ok=False), r(1, 2, 7)]
        assert check_linearizable(ops) is True

    def test_failed_write_may_never_take_effect(self):
        ops = [w(0, math.inf, 7, ok=False), r(1, 2, 0)]
        assert check_linearizable(ops) is True

    def test_failed_write_takes_effect_in_later_window(self):
        # Quiescence between the reads: the floating write must carry
        # across the window boundary to explain the second read.
        ops = [w(0, math.inf, 7, ok=False),
               r(1, 2, 0), r(10, 11, 7), r(12, 13, 7)]
        assert check_linearizable(ops) is True

    def test_failed_write_cannot_unhappen(self):
        # Once a read observed 7, a later read of 0 is a violation.
        ops = [w(0, math.inf, 7, ok=False), r(1, 2, 7), r(3, 4, 0)]
        assert check_linearizable(ops) is False

    def test_budget_exhaustion_is_inconclusive(self):
        ops = [w(i, 100 + i, i) for i in range(12)]
        assert check_linearizable(ops, budget=5) is None

    def test_matches_oracle_on_fixed_cases(self):
        cases = [
            [w(0, 1, 1), w(0.5, 2, 2), r(1.5, 3, 1)],
            [w(0, 1, 1), w(0.5, 2, 2), r(3, 4, 1)],
            [w(0, 4, 1), w(1, 2, 2), r(2.5, 3, 2), r(5, 6, 1)],
            [w(0, math.inf, 3, ok=False), w(1, 2, 4), r(3, 4, 3)],
        ]
        for ops in cases:
            assert check_linearizable(ops) is brute_force_linearizable(ops)

    def test_resp_before_inv_rejected(self):
        with pytest.raises(ValueError):
            RegisterOp(inv=2.0, resp=1.0, is_write=True, value=1)
        with pytest.raises(ValueError):
            RegisterOp(inv=0.0, resp=math.inf, is_write=True, value=1,
                       ok=True)


class TestHistoryProjection:
    def test_projects_one_key_with_floating_failed_writes(self):
        records = [
            OpRecord(index=0, session=0, op="insert", key="a",
                     t_invoke=0.0, t_ack=1.0, ok=True, version=1),
            OpRecord(index=1, session=0, op="insert", key="a",
                     t_invoke=2.0, t_ack=2.5, ok=False, error="fault",
                     version=2),
            OpRecord(index=2, session=1, op="read", key="a",
                     t_invoke=3.0, t_ack=3.5, ok=True, version=1),
            OpRecord(index=3, session=1, op="read", key="b",
                     t_invoke=3.0, t_ack=3.5, ok=True, version=9),
        ]
        ops = history_to_register_ops(records, "a")
        assert len(ops) == 3
        floating = [o for o in ops if not o.ok]
        assert len(floating) == 1
        assert math.isinf(floating[0].resp)
        assert check_linearizable(ops) is True

    def test_failed_reads_are_dropped(self):
        records = [
            OpRecord(index=0, session=0, op="read", key="a",
                     t_invoke=0.0, t_ack=1.0, ok=False, error="fault"),
        ]
        assert history_to_register_ops(records, "a") == []
