"""Behavioural tests for the SLO burn-rate engine."""

import pytest

from repro.obs import ExemplarStore, FlightRecorder, ObsPolicy, SLO
from repro.obs.policy import BurnRateRule
from repro.obs.slo import SLOEngine
from repro.sim.kernel import Simulator

AVAIL = SLO(name="avail", kind="availability", target=0.99)
RULE = BurnRateRule(name="page", long_s=2.0, short_s=0.5, factor=8.0,
                    clear_ratio=0.9)


def make_engine(**kwargs):
    policy = ObsPolicy(slos=(AVAIL,), rules=(RULE,), window_s=0.25,
                       tick_s=0.25)
    sim = Simulator()
    return sim, SLOEngine(sim, policy, **kwargs)


def burn_everything(engine, t0, t1, n=50, step=None):
    """Only failures in [t0, t1): burn at the hard ceiling (100x)."""
    step = step or (t1 - t0) / n
    t = t0
    while t < t1:
        engine.note_op(t, "read", 0.0, True, "store")
        t += step


def all_good(engine, t0, t1, n=50):
    step = (t1 - t0) / n
    for i in range(n):
        engine.note_op(t0 + i * step, "read", 0.001, False)


class TestFireAndClear:
    def test_fires_when_both_windows_burn(self):
        _, engine = make_engine()
        burn_everything(engine, 0.0, 2.0)
        engine._evaluate(2.0)
        assert engine.is_firing("avail", "page")
        (alert,) = engine.alerts
        assert alert["kind"] == "fire"
        assert alert["severity"] == "page"
        assert alert["burn_long"] >= RULE.factor
        assert alert["burn_short"] >= RULE.factor

    def test_does_not_fire_on_long_window_alone(self):
        """Recovered incident: short window healthy -> no page."""
        _, engine = make_engine()
        burn_everything(engine, 0.0, 1.4)
        all_good(engine, 1.5, 2.0)  # the short window [1.5, 2.0)
        engine._evaluate(2.0)
        assert not engine.is_firing("avail", "page")
        assert engine.alerts == []

    def test_does_not_refire_while_breached(self):
        _, engine = make_engine()
        burn_everything(engine, 0.0, 2.0)
        engine._evaluate(2.0)
        burn_everything(engine, 2.0, 2.25)
        engine._evaluate(2.25)
        assert len(engine.alerts) == 1

    def test_clears_with_hysteresis_after_recovery(self):
        _, engine = make_engine()
        burn_everything(engine, 0.0, 2.0)
        engine._evaluate(2.0)
        assert engine.is_firing("avail", "page")
        # Two healthy long windows later the burn is ~0 -> clear.
        all_good(engine, 2.0, 6.0, n=200)
        engine._evaluate(6.0)
        assert not engine.is_firing("avail", "page")
        kinds = [a["kind"] for a in engine.alerts]
        assert kinds == ["fire", "clear"]

    def test_missing_data_never_fires_or_clears(self):
        _, engine = make_engine()
        engine._evaluate(2.0)  # nothing classified at all
        assert engine.alerts == []
        burn_everything(engine, 2.0, 4.0)
        engine._evaluate(4.0)
        assert engine.is_firing("avail", "page")
        # A silent window is an ingestion gap: the alert must hold.
        engine._evaluate(8.0)
        assert engine.is_firing("avail", "page")
        assert [a["kind"] for a in engine.alerts] == ["fire"]


class TestBudgets:
    def test_no_data_is_full_budget(self):
        _, engine = make_engine()
        assert engine.budget_remaining(AVAIL) == 1.0

    def test_budget_clamps_at_zero(self):
        _, engine = make_engine()
        burn_everything(engine, 0.0, 1.0)
        assert engine.budget_remaining(AVAIL) == 0.0

    def test_budget_linear_in_bad_fraction(self):
        _, engine = make_engine()
        # 1000 ops, 5 bad: half the 1% budget spent.
        for i in range(995):
            engine.note_op(0.001 * i, "read", 0.0, False)
        for i in range(5):
            engine.note_op(1.0, "read", 0.0, True, "store")
        assert engine.budget_remaining(AVAIL) == pytest.approx(0.5)


class TestWiring:
    def test_alert_carries_recent_exemplars(self):
        sim = Simulator()
        policy = ObsPolicy(slos=(AVAIL,), rules=(RULE,), window_s=0.25,
                           max_alert_exemplars=2)
        exemplars = ExemplarStore(window_s=0.25)
        engine = SLOEngine(sim, policy, exemplars=exemplars)
        burn_everything(engine, 0.0, 2.0)
        for tid, t in enumerate((0.1, 0.6, 1.1, 1.6)):
            exemplars.offer_violation(t, "avail", tid)
        engine._evaluate(2.0)
        (alert,) = engine.alerts
        # limit=2 keeps the most recent violators, not the first ones
        assert alert["exemplar_trace_ids"] == [2, 3]

    def test_zero_exemplar_limit_attaches_none(self):
        sim = Simulator()
        policy = ObsPolicy(slos=(AVAIL,), rules=(RULE,), window_s=0.25,
                           max_alert_exemplars=0)
        exemplars = ExemplarStore(window_s=0.25)
        engine = SLOEngine(sim, policy, exemplars=exemplars)
        burn_everything(engine, 0.0, 2.0)
        for tid in range(5):
            exemplars.offer_violation(0.3 * tid, "avail", tid)
        engine._evaluate(2.0)
        (alert,) = engine.alerts
        assert alert["exemplar_trace_ids"] == []

    def test_fire_dumps_flight_recorder(self):
        sim = Simulator()
        policy = ObsPolicy(slos=(AVAIL,), rules=(RULE,), window_s=0.25)
        recorder = FlightRecorder(sim)
        engine = SLOEngine(sim, policy, recorder=recorder)
        burn_everything(engine, 0.0, 2.0)
        engine._evaluate(2.0)
        (dump,) = recorder.dumps
        assert dump["trigger"] == "slo-breach"
        assert "avail/page" in dump["reason"]
        assert any(e["kind"] == "alert-fire" for e in dump["entries"])

    def test_process_loop_and_close(self):
        sim, engine = make_engine()
        burn_everything(engine, 0.0, 2.0)
        engine.start()

        def driver():
            yield sim.timeout(2.0)

        sim.run(until=sim.process(driver()))
        assert engine.evaluations == 8  # every 0.25 s tick
        assert engine.is_firing("avail", "page")
        evaluations = engine.evaluations
        engine.close()  # sim.now == last tick: no double evaluation
        assert engine.evaluations == evaluations

    def test_close_evaluates_short_runs(self):
        """A run shorter than one tick still gets judged at close."""
        sim, engine = make_engine()
        burn_everything(engine, 0.0, 0.1, n=20)
        engine.start()

        def driver():
            yield sim.timeout(0.1)

        sim.run(until=sim.process(driver()))
        assert engine.evaluations == 0
        engine.close()
        assert engine.evaluations == 1
        assert engine.is_firing("avail", "page")

    def test_payload_shape(self):
        _, engine = make_engine()
        burn_everything(engine, 0.0, 2.0)
        engine._evaluate(2.0)
        payload = engine.to_payload()
        assert payload["totals"]["avail"]["bad"] > 0
        assert payload["budgets"]["avail"] == 0.0
        assert payload["series_csv"].startswith(
            "start,end,channel,value\n")
        assert payload["alerts"][0]["slo"] == "avail"
