"""The SLO engine: error budgets and multi-window burn-rate alerts.

Every measured operation is classified good or bad against each
:class:`~repro.obs.policy.SLO` in scope; the counts land in a
:class:`~repro.metrics.timeseries.WindowedSeries` (``slo_good{...}`` /
``slo_bad{...}`` channels), the same representation the metrics sampler
uses, so the alert evidence exports through the shared CSV layout.

The engine runs as a simulation process ticking ``policy.tick_s``.  At
each tick, for every (SLO, rule) pair it computes the **burn rate** —
the bad fraction divided by the budget fraction ``1 - target`` — over
the rule's long and short windows, and applies the Google-SRE condition:

* **fire** when *both* windows burn at >= ``factor`` (sustained *and*
  ongoing);
* **clear** with hysteresis once the long-window burn retreats below
  ``factor * clear_ratio``;
* **missing data never changes state** — a window with no classified
  operations is an ingestion gap, not an incident.

Fired alerts carry provenance-free, JSON-ready evidence: both burn
rates, the cumulative budget remaining, and up to
``max_alert_exemplars`` trace IDs of kept traces that violated the
objective inside the long window.  Each fire also dumps the flight
recorder, so every page ships its own postmortem context.
"""

from __future__ import annotations

from typing import Optional

from repro.metrics.timeseries import WindowedSeries
from repro.obs.policy import SLO, ObsPolicy

__all__ = ["SLOEngine", "burn_rate", "should_fire", "should_clear"]


def burn_rate(good: float, bad: float, target: float) -> float:
    """Budget burn speed: bad fraction over the budget fraction.

    1.0 means the budget is being spent exactly at the sustainable
    rate; ``1 / (1 - target)`` is the ceiling (everything failing).
    Zero activity burns nothing.
    """
    total = good + bad
    if total <= 0:
        return 0.0
    return (bad / total) / (1.0 - target)


def should_fire(burn_long: float, burn_short: float,
                factor: float) -> bool:
    """The multi-window condition: both windows at or over ``factor``."""
    return burn_long >= factor and burn_short >= factor


def should_clear(burn_long: float, factor: float,
                 clear_ratio: float) -> bool:
    """Hysteresis: clear once the long burn is below the clear line."""
    return burn_long < factor * clear_ratio


def _chan(prefix: str, slo_name: str) -> str:
    return f'{prefix}{{slo="{slo_name}"}}'


class SLOEngine:
    """Classifies operations and evaluates burn-rate rules over them."""

    def __init__(self, sim, policy: ObsPolicy, recorder=None,
                 exemplars=None):
        self.sim = sim
        self.policy = policy
        self.recorder = recorder
        self.exemplars = exemplars
        #: Good/bad counts on the shared windowed-series representation.
        self.series = WindowedSeries(policy.window_s)
        #: Cumulative [good, bad] per SLO (budget accounting).
        self._totals = {slo.name: [0, 0] for slo in policy.slos}
        #: The deterministic alert log: fire/clear dicts in time order.
        self.alerts: list[dict] = []
        self._firing: dict[tuple, bool] = {}
        self.evaluations = 0
        self._last_eval = 0.0
        self._stopped = False
        self._process = None

    # -- classification ------------------------------------------------------

    def note_op(self, now: float, op: str, latency_s: float, error: bool,
                error_kind: Optional[str] = None) -> list:
        """Classify one measured op; returns the SLO names it violated."""
        violated = []
        for slo in self.policy.slos:
            verdict = slo.classify(op, latency_s, error, error_kind)
            if verdict is None:
                continue
            if verdict:
                self._totals[slo.name][0] += 1
                self.series.add(now, _chan("slo_good", slo.name))
            else:
                self._totals[slo.name][1] += 1
                self.series.add(now, _chan("slo_bad", slo.name))
                violated.append(slo.name)
        return violated

    # -- budget arithmetic ---------------------------------------------------

    def window_counts(self, slo: SLO, t0: float, t1: float) -> tuple:
        """(good, bad) classified into ``[t0, t1)`` for ``slo``."""
        return (self.series.sum_between(_chan("slo_good", slo.name), t0, t1),
                self.series.sum_between(_chan("slo_bad", slo.name), t0, t1))

    def burn_rate(self, slo: SLO, t0: float, t1: float) -> float:
        """The burn rate of ``slo`` over ``[t0, t1)``."""
        good, bad = self.window_counts(slo, t0, t1)
        return burn_rate(good, bad, slo.target)

    def budget_remaining(self, slo: SLO) -> float:
        """Cumulative error-budget fraction left (never negative)."""
        good, bad = self._totals[slo.name]
        total = good + bad
        if total == 0:
            return 1.0
        allowed = total * (1.0 - slo.target)
        return max(0.0, 1.0 - bad / allowed)

    def budgets(self) -> dict:
        """Remaining budget per SLO, in sorted name order."""
        return {slo.name: self.budget_remaining(slo)
                for slo in sorted(self.policy.slos, key=lambda s: s.name)}

    def is_firing(self, slo_name: str, rule_name: str) -> bool:
        return self._firing.get((slo_name, rule_name), False)

    # -- the evaluation loop -------------------------------------------------

    def start(self):
        """Spawn the burn-rate evaluation process."""
        if self._process is None:
            self._process = self.sim.process(self._run(), name="slo-engine")
        return self._process

    def stop(self) -> None:
        self._stopped = True

    def _run(self):
        tick = self.policy.tick_s
        while not self._stopped:
            yield self.sim.timeout(tick)
            if self._stopped:
                break
            self._evaluate(self.sim.now)

    def _evaluate(self, now: float) -> None:
        self.evaluations += 1
        self._last_eval = now
        for slo in self.policy.slos:
            for rule in self.policy.rules:
                key = (slo.name, rule.name)
                firing = self._firing.get(key, False)
                good_l, bad_l = self.window_counts(
                    slo, max(0.0, now - rule.long_s), now)
                if good_l + bad_l <= 0:
                    continue  # missing data never fires (or clears)
                burn_long = burn_rate(good_l, bad_l, slo.target)
                burn_short = self.burn_rate(
                    slo, max(0.0, now - rule.short_s), now)
                if not firing and should_fire(burn_long, burn_short,
                                              rule.factor):
                    self._firing[key] = True
                    self._emit(now, slo, rule, "fire", burn_long,
                               burn_short)
                elif firing and should_clear(burn_long, rule.factor,
                                             rule.clear_ratio):
                    self._firing[key] = False
                    self._emit(now, slo, rule, "clear", burn_long,
                               burn_short)

    def _emit(self, now: float, slo: SLO, rule, kind: str,
              burn_long: float, burn_short: float) -> None:
        exemplar_ids: list = []
        if kind == "fire" and self.exemplars is not None:
            exemplar_ids = self.exemplars.violating(
                slo.name, now - rule.long_s, now,
                limit=self.policy.max_alert_exemplars)
        alert = {
            "t": now,
            "slo": slo.name,
            "rule": rule.name,
            "severity": rule.severity,
            "kind": kind,
            "burn_long": burn_long,
            "burn_short": burn_short,
            "factor": rule.factor,
            "budget_remaining": self.budget_remaining(slo),
            "exemplar_trace_ids": exemplar_ids,
        }
        self.alerts.append(alert)
        if self.recorder is not None:
            self.recorder.record(f"alert-{kind}", slo=slo.name,
                                 rule=rule.name, severity=rule.severity,
                                 burn_long=burn_long)
            if kind == "fire":
                self.recorder.dump(
                    "slo-breach",
                    reason=(f"{slo.name}/{rule.name} burning "
                            f"{burn_long:.1f}x over both windows"))

    def close(self) -> None:
        """Stop the loop and run one final evaluation at ``sim.now``.

        A run that ends mid-tick still gets its last partial window
        judged, so short scenarios cannot end with an un-evaluated
        breach.
        """
        self._stopped = True
        if self.sim.now > self._last_eval:
            self._evaluate(self.sim.now)

    # -- export --------------------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-ready engine state: alert log, budgets, evidence CSV."""
        return {
            "alerts": self.alerts,
            "budgets": self.budgets(),
            "evaluations": self.evaluations,
            "series_csv": self.series.to_csv(),
            "totals": {
                name: {"good": counts[0], "bad": counts[1]}
                for name, counts in sorted(self._totals.items())
            },
        }
