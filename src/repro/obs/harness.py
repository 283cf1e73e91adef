"""Incident-scenario harness: open-loop load + chaos + observability.

:func:`run_obs_scenario` composes what ``apmbench obs`` and the
determinism suite share: an open-loop arrival process (optionally
shaped) against one store, a chaos schedule from the config, full
cluster telemetry, and an :class:`~repro.obs.layer.ObsLayer` watching
every measured operation.  The outcome is an :class:`ObsReport` — the
incident report: alerts fired with exemplar trace IDs, budget remaining
per SLO, the tail-sampled span trees those exemplars resolve to, the
flight-recorder dumps, and the Prometheus/CSV snapshots — all
provenance-stamped and byte-deterministic under a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from repro.analysis.provenance import stamp
from repro.obs.layer import ObsLayer
from repro.obs.policy import ObsPolicy
from repro.overload.shapes import ArrivalShape

__all__ = ["ObsScenario", "ObsReport", "run_obs_scenario"]


@dataclass(frozen=True)
class ObsScenario:
    """Everything that defines one observed incident run."""

    #: The benchmark config: store, workload, fleet, seed, and the
    #: chaos schedule / overload policy the incident plays out under.
    config: object
    #: The observability policy watching the run.
    policy: ObsPolicy
    #: Offered rate (the shape's base rate), ops/s.
    offered_rate: float
    #: Offered-load horizon, simulated seconds.
    duration_s: float
    #: Arrivals before this time are driven but not measured.
    warmup_s: float = 0.0
    #: Arrival shape (``None`` = constant rate).
    shape: Optional[ArrivalShape] = None
    #: Availability-timeline bucket width (``None`` = no timeline).
    timeline_s: Optional[float] = 0.5
    #: Latency bound for the goodput point (defaults to the overload
    #: deadline, then to the open-loop default SLO).
    slo_s: Optional[float] = None
    #: Cap on span trees embedded in the export.
    max_export_traces: int = 100

    def to_dict(self) -> dict:
        # Shallow, then the three nested records through their own
        # ``to_dict``: ``asdict`` would flatten the config field by field.
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload.update(
            config=self.config.to_dict(), policy=self.policy.to_dict(),
            shape=None if self.shape is None else self.shape.to_dict())
        return payload


@dataclass(frozen=True)
class ObsReport:
    """One observed run: the incident report and all its evidence."""

    scenario: ObsScenario
    #: The open-loop goodput measurement (:class:`OverloadPoint` dict).
    point: dict
    #: Per-window arrival/in-SLO availability evidence.
    timeline: list
    #: The :class:`~repro.obs.layer.ObsLayer` bundle: alert log,
    #: budgets, exemplars, tail-sampling tallies, flight recorder.
    observability: dict
    #: Kept span trees, Chrome-trace format — what exemplar trace IDs
    #: resolve to.
    traces: dict
    #: Final registry snapshot with OpenMetrics exemplar annotations.
    prometheus: str
    #: Sampled cluster telemetry in the shared CSV layout.
    metrics_csv: str
    #: Histogram-grid exemplars as CSV.
    exemplars_csv: str

    @property
    def alerts(self) -> list:
        return self.observability["slo"]["alerts"]

    @property
    def budgets(self) -> dict:
        return self.observability["slo"]["budgets"]

    @property
    def dumps(self) -> list:
        return self.observability["flight_recorder"]["dumps"]

    def to_dict(self) -> dict:
        """The JSON export, provenance-stamped and byte-deterministic."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["scenario"] = self.scenario.to_dict()
        return stamp(payload, self.scenario.config)

    def render(self) -> str:
        """The human-readable incident report."""
        config = self.scenario.config
        point = self.point
        lines = [
            f"INCIDENT REPORT — {config.store}/"
            f"{config.workload.name} n={config.n_nodes} "
            f"seed={config.seed}",
            f"offered {point['offered_rate']:.0f} ops/s for "
            f"{point['duration_s']:g} s — goodput "
            f"{point['goodput']:.1f} ops/s "
            f"({point['in_slo']}/{point['arrivals']} arrivals in SLO, "
            f"{point['shed']} shed)",
            "",
            "SLO budgets:",
        ]
        firing = {(a["slo"], a["rule"]) for a in self.alerts
                  if a["kind"] == "fire"}
        cleared = {(a["slo"], a["rule"]) for a in self.alerts
                   if a["kind"] == "clear"}
        breached = {slo for slo, _ in firing - cleared}
        for name, remaining in self.budgets.items():
            flag = "  [BREACHED]" if name in breached else ""
            lines.append(f"  {name:<18} budget remaining "
                         f"{100.0 * remaining:6.1f}%{flag}")
        lines.append("")
        if self.alerts:
            lines.append(f"Alerts ({len(self.alerts)}):")
            for alert in self.alerts:
                ids = ",".join(str(t) for t in
                               alert["exemplar_trace_ids"]) or "-"
                lines.append(
                    f"  t={alert['t']:7.3f}  {alert['kind']:<5} "
                    f"{alert['severity']:<7} {alert['slo']:<18} "
                    f"burn {alert['burn_long']:.1f}x/"
                    f"{alert['burn_short']:.1f}x "
                    f"(>= {alert['factor']:g}x)  exemplars: {ids}")
        else:
            lines.append("Alerts: none fired")
        tail = self.observability["tail_sampling"]
        reasons = ", ".join(f"{k} {v}" for k, v in
                            tail["kept_by_reason"].items()) or "none"
        lines.append("")
        lines.append(
            f"Tail sampling: kept {tail['kept']} of "
            f"{tail['candidates']} candidates ({reasons}); "
            f"budget exhausted {tail['budget_exhausted']}")
        recorder = self.observability["flight_recorder"]
        if recorder["dumps"]:
            triggers = ", ".join(
                f"{d['trigger']} @{d['t']:.2f}" for d in recorder["dumps"])
            lines.append(
                f"Flight recorder: {len(recorder['dumps'])} dump(s) "
                f"({triggers}); {recorder['recorded']} entries recorded, "
                f"ring capacity {recorder['capacity']}")
        else:
            lines.append(
                f"Flight recorder: no dumps; {recorder['recorded']} "
                f"entries recorded, ring capacity {recorder['capacity']}")
        return "\n".join(lines)


def run_obs_scenario(scenario: ObsScenario) -> ObsReport:
    """Execute one observed incident scenario end to end."""
    from repro.analysis.prometheus import registry_to_prometheus
    from repro.analysis.trace_export import chrome_trace
    from repro.overload.openloop import _OpenLoopRun, resolve_slo_s

    run = _OpenLoopRun(scenario.config, scenario.offered_rate,
                       scenario.duration_s, scenario.warmup_s,
                       resolve_slo_s(scenario.config, scenario.slo_s),
                       shape=scenario.shape, timeline_s=scenario.timeline_s)
    registry, sampler = run.deployment.start_telemetry(
        scenario.policy.tick_s)
    obs = ObsLayer(run.sim, scenario.policy, run.chaos, registry=registry)
    run.watchers.append(obs)
    try:
        point = run.run()
    except Exception as exc:
        # The postmortem artefact survives even a crashed simulation.
        obs.note_failure(exc)
        raise
    finally:
        sampler.close()
    obs.close()
    kept = obs.tracer.traces[:scenario.max_export_traces]
    return ObsReport(
        scenario=scenario,
        point=point.to_dict(),
        timeline=(run.timeline() if scenario.timeline_s is not None
                  else []),
        observability=obs.to_payload(),
        traces=chrome_trace(kept),
        prometheus=registry_to_prometheus(
            registry, exemplars=obs.exemplars.prometheus_exemplars()),
        metrics_csv=sampler.series.to_csv(),
        exemplars_csv=obs.exemplars.to_csv(),
    )
