"""Unit tests for APM agents and fleets."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.agents import Agent, AgentFleet
from repro.core.metrics import MonitoringLevel


class TestAgent:
    def test_reports_all_metrics(self):
        agent = Agent(host="h1", name="a0", n_metrics=25)
        measurements = list(agent.report(timestamp=1000))
        assert len(measurements) == 25
        assert len({m.metric.path for m in measurements}) == 25

    def test_metric_paths_include_host(self):
        agent = Agent(host="web7", name="a0", n_metrics=3)
        for metric in agent.metrics:
            assert metric.host == "web7"

    def test_measurements_are_valid(self):
        agent = Agent(host="h", name="a", n_metrics=10)
        for measurement in agent.report(500):
            assert measurement.minimum <= measurement.value
            assert measurement.value <= measurement.maximum
            assert measurement.duration == agent.interval_s

    def test_monitoring_level_raises_rate(self):
        basic = Agent(host="h", name="a", n_metrics=10)
        triage = Agent(host="h", name="a", n_metrics=10,
                       level=MonitoringLevel.INCIDENT_TRIAGE)
        assert (triage.reports_per_interval
                == 10 * basic.reports_per_interval)
        assert len(list(triage.report(100))) == 100

    def test_many_metrics_get_distinct_names(self):
        agent = Agent(host="h", name="a", n_metrics=120)
        assert len({m.path for m in agent.metrics}) == 120


class TestAgentFleet:
    def test_paper_scale_arithmetic(self):
        """Section 1: 10K nodes x 10K metrics / 10s = 10M measurements/s."""
        fleet = AgentFleet(n_hosts=100, metrics_per_host=100, interval_s=10)
        assert fleet.measurements_per_second == pytest.approx(1000.0)

    def test_report_all_covers_every_agent(self):
        fleet = AgentFleet(n_hosts=5, metrics_per_host=4)
        measurements = list(fleet.report_all(100))
        assert len(measurements) == 20
        hosts = {m.metric.host for m in measurements}
        assert len(hosts) == 5

    def test_stream_spans_intervals(self):
        fleet = AgentFleet(n_hosts=2, metrics_per_host=3, interval_s=10)
        measurements = list(fleet.stream(start_timestamp=0, intervals=4))
        assert len(measurements) == 24
        timestamps = sorted({m.timestamp for m in measurements})
        assert timestamps == [0, 10, 20, 30]

    def test_report_is_independent_of_the_interpreters_hash_seed(self):
        """Noise and baselines come from murmur64a, so two processes
        with differently salted ``hash`` report the same values."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        dump = ("from repro.core.agents import AgentFleet\n"
                "for m in AgentFleet(n_hosts=3, metrics_per_host=20,"
                " seed=5).report_all(1000):\n"
                "    print(m.metric.path, repr(m.value), repr(m.minimum),"
                " repr(m.maximum))\n")
        dumps = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            dumps.append(subprocess.run(
                [sys.executable, "-c", dump], env=env, check=True,
                capture_output=True, text=True, timeout=60).stdout)
        assert dumps[0] == dumps[1]
        assert dumps[0].count("\n") == 60
