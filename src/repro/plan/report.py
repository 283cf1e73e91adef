"""Recommendation assembly: analytical claims vs simulated verdicts.

The report is the planner's product: per store, which configuration the
*model* would pick, which one the *simulation* confirms, their deltas
(so the model's error stays visible instead of silently shaping
recommendations), and the overall cheapest validated configuration.
``to_payload`` is the byte-deterministic export — provenance-stamped,
sorted keys, no wall clock — and ``render`` the human table.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.analysis.provenance import stamp
from repro.plan.search import FrontierEntry, FrontierResult
from repro.plan.spec import LoadSpec
from repro.plan.validate import ValidationOutcome, ValidationSettings

__all__ = ["PlanReport", "build_report"]


@dataclass
class PlanReport:
    """Everything ``apmbench plan`` concluded, ready to export."""

    spec: LoadSpec
    settings: ValidationSettings
    frontier: FrontierResult
    outcomes: list[ValidationOutcome]
    #: Cheapest *validated* candidate per store (None: all rejected).
    recommended_per_store: dict[str, ValidationOutcome | None] = field(
        default_factory=dict)
    #: Cheapest validated candidate overall.
    recommended: ValidationOutcome | None = None
    #: Stores where the analytical pick and the validated pick differ —
    #: the model alone would have recommended a config the simulation
    #: rejected.
    disagreements: list[dict] = field(default_factory=list)

    def to_payload(self) -> dict:
        """The provenance-stamped, deterministic JSON projection."""
        payload = {
            "spec": {
                "users": self.spec.users,
                "users_per_agent": self.spec.users_per_agent,
                "metrics_per_agent": self.spec.metrics_per_agent,
                "flush_interval_s": self.spec.flush_interval_s,
                "workload": self.spec.workload.name,
                "agents": self.spec.agents,
                "insert_rate": self.spec.insert_rate,
                "required_ops_per_s": self.spec.required_ops_per_s,
                "slos": [t.describe() for t in self.spec.slos],
                "seed": self.spec.seed,
            },
            "validation": asdict(self.settings),
            "frontier": {
                "examined": self.frontier.examined,
                "entries": [self._entry_row(e) for e in
                            self.frontier.entries],
                "skipped": [{"store": s, "reason": r}
                            for s, r in self.frontier.skipped],
                "infeasible": [
                    {"store": s, "hardware": h,
                     "peak_modeled_ops_per_s": round(peak, 1)}
                    for s, h, peak in self.frontier.infeasible],
            },
            "outcomes": [o.row() for o in self.outcomes],
            "recommended_per_store": {
                store: (None if outcome is None else outcome.row())
                for store, outcome in
                sorted(self.recommended_per_store.items())
            },
            "recommended": (None if self.recommended is None
                            else self.recommended.row()),
            "disagreements": self.disagreements,
        }
        return stamp(payload, self.spec)

    @staticmethod
    def _entry_row(entry: FrontierEntry) -> dict:
        row = entry.modeled.row()
        row["cost"] = round(entry.candidate.cost, 3)
        row["utilisation"] = round(entry.utilisation, 4)
        return row

    def render(self) -> str:
        """The human-readable recommendation table."""
        lines = [self.spec.describe(), ""]
        header = (f"{'store':<10} {'hardware':<12} {'nodes':>5} "
                  f"{'cost':>7} {'modeled':>10} {'simulated':>10} "
                  f"{'delta':>7} {'verdict':<8}")
        lines.append(header)
        lines.append("-" * len(header))
        for outcome in self.outcomes:
            candidate = outcome.entry.candidate
            modeled = outcome.entry.modeled.ops_per_s
            achievable = min(modeled, outcome.required_ops_per_s)
            if outcome.simulated_ops_per_s > 0:
                delta = (f"{(achievable - outcome.simulated_ops_per_s) / achievable:+.0%}")
            else:
                delta = "n/a"
            verdict = "PASS" if outcome.passed else "FAIL"
            if not outcome.throughput_ok:
                verdict += " tput"
            elif not outcome.passed:
                verdict += " slo"
            lines.append(
                f"{candidate.store:<10} {candidate.hardware.name:<12} "
                f"{candidate.n_nodes:>5} {candidate.cost:>7.2f} "
                f"{modeled:>10,.0f} {outcome.simulated_ops_per_s:>10,.0f} "
                f"{delta:>7} {verdict:<8}")
        for store, __, peak in self.frontier.infeasible:
            lines.append(f"{store:<10} (no feasible config; best modeled "
                         f"{peak:,.0f} ops/s)")
        for store, reason in self.frontier.skipped:
            lines.append(f"{store:<10} (skipped: {reason})")
        lines.append("")
        for store, outcome in sorted(self.recommended_per_store.items()):
            if outcome is None:
                lines.append(f"{store}: no validated configuration")
            else:
                candidate = outcome.entry.candidate
                lines.append(
                    f"{store}: {candidate.n_nodes} x "
                    f"{candidate.hardware.name} "
                    f"(cost {candidate.cost:.2f}/h, simulated "
                    f"{outcome.simulated_ops_per_s:,.0f} ops/s)")
        lines.append("")
        if self.recommended is None:
            lines.append("RECOMMENDATION: no configuration met the "
                         "requirement — raise the node ceiling or relax "
                         "the SLOs")
        else:
            candidate = self.recommended.entry.candidate
            lines.append(
                f"RECOMMENDATION: {candidate.n_nodes} x "
                f"{candidate.hardware.name} running {candidate.store} "
                f"(cost {candidate.cost:.2f}/h)")
        for disagreement in self.disagreements:
            lines.append(
                f"note: for {disagreement['store']} the analytical model "
                f"alone would pick {disagreement['analytical']} — "
                f"{disagreement['reason']}")
        return "\n".join(lines)


def build_report(spec: LoadSpec, settings: ValidationSettings,
                 frontier: FrontierResult,
                 outcomes: list[ValidationOutcome]) -> PlanReport:
    """Turn frontier + validation verdicts into recommendations.

    ``outcomes`` must be in frontier (cheapest-first) order; the
    recommendation per store is then simply the first passing outcome.
    """
    report = PlanReport(spec=spec, settings=settings, frontier=frontier,
                        outcomes=outcomes)
    by_store: dict[str, list[ValidationOutcome]] = {}
    for outcome in outcomes:
        by_store.setdefault(outcome.entry.candidate.store,
                            []).append(outcome)
    for store, store_outcomes in by_store.items():
        analytical = store_outcomes[0]  # cheapest by model
        validated = next((o for o in store_outcomes if o.passed), None)
        report.recommended_per_store[store] = validated
        if validated is not analytical:
            reasons = []
            if not analytical.throughput_ok:
                reasons.append(
                    f"simulated {analytical.simulated_ops_per_s:,.0f} "
                    f"ops/s < required "
                    f"{analytical.required_ops_per_s:,.0f}")
            failed = [c for c in analytical.slo_checks if not c.passed]
            for check in failed:
                observed = (f"{check.observed_s * 1000:.1f} ms"
                            if check.observed_s is not None else "n/a")
                reasons.append(
                    f"{check.target.describe()} breached ({observed})")
            report.disagreements.append({
                "store": store,
                "analytical": analytical.entry.candidate.label(),
                "validated": (None if validated is None
                              else validated.entry.candidate.label()),
                "reason": "; ".join(reasons) or "rejected by simulation",
            })
    passing = [o for o in outcomes if o.passed]
    if passing:
        report.recommended = min(
            passing, key=lambda o: (o.entry.candidate.cost,
                                    o.entry.candidate.n_nodes,
                                    o.entry.candidate.store,
                                    o.entry.candidate.hardware.name))
    return report
