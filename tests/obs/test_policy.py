"""Unit tests for SLO / burn-rate-rule / ObsPolicy declarations."""

import pytest

from repro.obs import (
    DEFAULT_RULES,
    BurnRateRule,
    ObsPolicy,
    SLO,
    default_slos,
)


class TestSLO:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLO(name="x", kind="throughput", target=0.9)
        with pytest.raises(ValueError):
            SLO(name="x", kind="availability", target=1.0)
        with pytest.raises(ValueError):
            SLO(name="x", kind="availability", target=0.0)
        with pytest.raises(ValueError):
            SLO(name="x", kind="latency", target=0.99)  # no threshold
        with pytest.raises(ValueError):
            SLO(name="x", kind="error_rate", target=0.99,
                error_kinds=("meteor",))

    def test_latency_classification(self):
        slo = SLO(name="lat", kind="latency", target=0.99,
                  threshold_s=0.1)
        assert slo.classify("read", 0.05, False, None) is True
        assert slo.classify("read", 0.2, False, None) is False
        # errors are bad regardless of how fast they failed
        assert slo.classify("read", 0.001, True, "store") is False

    def test_availability_classification(self):
        slo = SLO(name="avail", kind="availability", target=0.999)
        assert slo.classify("read", 5.0, False, None) is True
        assert slo.classify("read", 0.0, True, "fault") is False

    def test_error_rate_kinds_scope(self):
        slo = SLO(name="ovl", kind="error_rate", target=0.995,
                  error_kinds=("overload", "deadline"))
        assert slo.classify("read", 0.0, True, "overload") is False
        assert slo.classify("read", 0.0, True, "deadline") is False
        # a store error is not charged against the overload budget
        assert slo.classify("read", 0.0, True, "store") is True
        assert slo.classify("read", 0.0, False, None) is True
        # None error_kinds = every kind counts
        broad = SLO(name="all", kind="error_rate", target=0.99)
        assert broad.classify("read", 0.0, True, "store") is False
        assert broad.classify("read", 0.0, True, None) is False

    def test_ops_scoping(self):
        slo = SLO(name="lat", kind="latency", target=0.99,
                  threshold_s=0.1, ops=("read",))
        assert slo.classify("write", 9.0, False, None) is None
        assert slo.classify("read", 9.0, False, None) is False


class TestBurnRateRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            BurnRateRule(name="r", long_s=1.0, short_s=2.0, factor=8.0)
        with pytest.raises(ValueError):
            BurnRateRule(name="r", long_s=1.0, short_s=1.0, factor=8.0)
        with pytest.raises(ValueError):
            BurnRateRule(name="r", long_s=2.0, short_s=0.5, factor=0.0)
        with pytest.raises(ValueError):
            BurnRateRule(name="r", long_s=2.0, short_s=0.5, factor=1.0,
                         clear_ratio=0.0)

    def test_default_pair_shape(self):
        """Fast high-factor page plus slow low-factor ticket."""
        page, ticket = DEFAULT_RULES
        assert page.factor > ticket.factor
        assert page.long_s < ticket.long_s
        assert page.short_s < page.long_s
        assert ticket.short_s < ticket.long_s


class TestObsPolicy:
    def test_unique_names_enforced(self):
        slo = default_slos()[0]
        with pytest.raises(ValueError):
            ObsPolicy(slos=(slo, slo))
        rule = DEFAULT_RULES[0]
        with pytest.raises(ValueError):
            ObsPolicy(rules=(rule, rule))

    def test_validation(self):
        with pytest.raises(ValueError):
            ObsPolicy(window_s=0.0)
        with pytest.raises(ValueError):
            ObsPolicy(tail_keep_budget=0)
        with pytest.raises(ValueError):
            ObsPolicy(candidate_every=0)
        with pytest.raises(ValueError):
            ObsPolicy(recorder_max_dumps=0)

    def test_slow_threshold_derivation(self):
        assert ObsPolicy().slow_threshold() == 0.25  # fallback
        assert ObsPolicy(
            tail_slow_threshold_s=0.07).slow_threshold() == 0.07
        policy = ObsPolicy(slos=default_slos(latency_slo_s=0.05))
        assert policy.slow_threshold() == 0.05

    def test_default_slos_cover_three_kinds(self):
        kinds = {slo.kind for slo in default_slos()}
        assert kinds == {"latency", "availability", "error_rate"}
