"""End-to-end tests of the incident-scenario harness.

One chaos + overload scenario is run once at module scope (the runs
take a second or two each) and every invariant asserts against it:
alerts fire, their exemplar trace IDs resolve to retained tail-sampled
span trees, the flight recorder dumped, and the whole export is
byte-identical across same-seed runs.
"""

import json

import pytest

from repro.faults.schedule import FaultSchedule
from repro.obs import ObsPolicy, ObsScenario, default_slos, \
    run_obs_scenario
from repro.overload import OverloadPolicy
from repro.overload.openloop import resolve_slo_s
from repro.ycsb.runner import BenchmarkConfig
from repro.ycsb.workload import WORKLOADS


def incident_scenario(seed=42):
    schedule = FaultSchedule()
    schedule.crash("server-0", at=0.5, restart_after=0.5)
    config = BenchmarkConfig(
        store="redis", workload=WORKLOADS["R"], n_nodes=1,
        records_per_node=500, seed=seed,
        overload=OverloadPolicy(max_queue=32, deadline_s=0.05),
        fault_schedule=schedule,
    )
    policy = ObsPolicy(slos=default_slos(latency_slo_s=0.05),
                       window_s=0.25, tick_s=0.25)
    return ObsScenario(config=config, policy=policy, offered_rate=600.0,
                       duration_s=1.5, slo_s=0.05)


@pytest.fixture(scope="module")
def report():
    return run_obs_scenario(incident_scenario())


class TestIncidentEvidence:
    def test_burn_rate_alerts_fire(self, report):
        fires = [a for a in report.alerts if a["kind"] == "fire"]
        assert fires, "a crashed single-node store must breach an SLO"
        for alert in fires:
            assert alert["burn_long"] >= alert["factor"]
            assert alert["burn_short"] >= alert["factor"]

    def test_alert_exemplars_resolve_to_kept_traces(self, report):
        kept_ids = {
            event["args"]["trace_id"]
            for event in report.traces["traceEvents"]
            if event.get("args", {}).get("trace_id") is not None
        }
        linked = [tid for alert in report.alerts
                  for tid in alert["exemplar_trace_ids"]]
        assert linked, "fired alerts must link exemplar traces"
        assert set(linked) <= kept_ids

    def test_exported_exemplar_traces_were_kept_for_cause(self, report):
        reasons = {
            event["args"]["trace_id"]: event["args"].get("keep_reason")
            for event in report.traces["traceEvents"]
            if event.get("args", {}).get("trace_id") is not None
        }
        assert reasons
        assert all(reason is not None for reason in reasons.values())

    def test_flight_recorder_dumped(self, report):
        triggers = {dump["trigger"] for dump in report.dumps}
        assert "node-failure" in triggers
        assert "slo-breach" in triggers
        node_dump = next(d for d in report.dumps
                         if d["trigger"] == "node-failure")
        assert any(e["kind"] == "chaos" for e in node_dump["entries"])

    def test_tail_sampling_kept_errors(self, report):
        tail = report.observability["tail_sampling"]
        assert tail["kept"] > 0
        assert any(reason.startswith("error:")
                   for reason in tail["kept_by_reason"])

    def test_prometheus_carries_exemplar_annotations(self, report):
        assert '# {trace_id="' in report.prometheus
        assert "op_latency_count" in report.prometheus

    def test_render_shape(self, report):
        text = report.render()
        assert text.startswith("INCIDENT REPORT — redis/R")
        assert "[BREACHED]" in text
        assert "Flight recorder:" in text
        assert "Tail sampling:" in text

    def test_export_is_json_ready_and_stamped(self, report):
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["provenance"]["seed"] == 42
        assert payload["observability"]["slo"]["alerts"]
        assert payload["exemplars_csv"].startswith("window_start,")
        assert payload["metrics_csv"].startswith("start,end,")


class TestScenarioDefaults:
    def test_slo_defaults_to_overload_deadline(self):
        scenario = incident_scenario()
        no_explicit = ObsScenario(
            config=scenario.config, policy=scenario.policy,
            offered_rate=600.0, duration_s=1.5)
        assert resolve_slo_s(no_explicit.config, no_explicit.slo_s) == 0.05

    def test_scenario_round_trips_to_dict(self):
        payload = incident_scenario().to_dict()
        assert payload["offered_rate"] == 600.0
        assert payload["policy"]["window_s"] == 0.25
        assert payload["config"]["store"] == "redis"
