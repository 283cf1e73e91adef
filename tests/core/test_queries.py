"""Integration tests for the paper's monitoring queries (Section 2)."""

import pytest

from repro.core.agents import AgentFleet
from repro.core.metrics import MetricId
from repro.core.queries import MonitoringQueries
from repro.hashing import murmur64a
from repro.sim.cluster import CLUSTER_M, Cluster
from repro.stores.registry import create_store


def load_fleet(store, fleet, intervals=12, start=1000):
    records = [m.to_row() for m in fleet.stream(start, intervals)]
    store.load(records)
    return records


@pytest.fixture
def setup():
    cluster = Cluster(CLUSTER_M, 2)
    store = create_store("cassandra", cluster)
    fleet = AgentFleet(n_hosts=3, metrics_per_host=6, interval_s=10)
    load_fleet(store, fleet)
    session = store.session(cluster.clients[0], 0)
    queries = MonitoringQueries(session, interval_s=10)
    return store, fleet, queries


class TestOnlineQueries:
    def test_max_over_window(self, setup):
        store, fleet, queries = setup
        metric = fleet.agents[0].metrics[0]
        now = 1000 + 11 * 10
        result = store.sim.run(until=store.sim.process(
            queries.max_over_window(metric, now=now, window_s=60)))
        assert result is not None
        # the reported max is within the generator's value envelope
        baseline = 10.0 + (murmur64a(metric.path.encode()) % 90)
        assert baseline * 0.75 <= result <= baseline * 1.25

    def test_max_over_window_with_no_data(self, setup):
        store, fleet, queries = setup
        missing = MetricId("ghost", "agent0", "Cache", "CPUUtilization")
        result = store.sim.run(until=store.sim.process(
            queries.max_over_window(missing, now=2000, window_s=60)))
        assert result is None

    def test_avg_over_window_across_hosts(self, setup):
        """Query 2: same metric type measured on different machines."""
        store, fleet, queries = setup
        metrics = [agent.metrics[0] for agent in fleet.agents]
        now = 1000 + 11 * 10
        result = store.sim.run(until=store.sim.process(
            queries.avg_over_window(metrics, now=now, window_s=90)))
        assert result is not None
        baselines = [10.0 + (murmur64a(m.path.encode()) % 90)
                     for m in metrics]
        expected = sum(baselines) / len(baselines)
        assert result == pytest.approx(expected, rel=0.25)


class TestArchiveQueries:
    def test_avg_over_period(self, setup):
        store, fleet, queries = setup
        metrics = [fleet.agents[0].metrics[1]]
        result = store.sim.run(until=store.sim.process(
            queries.avg_over_period(metrics, start=1000, end=1110)))
        assert result is not None

    def test_max_of_averages(self, setup):
        store, fleet, queries = setup
        metrics = [a.metrics[2] for a in fleet.agents]
        result = store.sim.run(until=store.sim.process(
            queries.max_of_averages(metrics, start=1000, end=1110)))
        avg = store.sim.run(until=store.sim.process(
            queries.avg_over_period(metrics, start=1000, end=1110)))
        assert result >= avg


class TestScanlessFallback:
    def test_voldemort_answers_via_point_reads(self):
        """Voldemort has no scans; the query layer falls back to reads."""
        cluster = Cluster(CLUSTER_M, 2)
        store = create_store("voldemort", cluster)
        fleet = AgentFleet(n_hosts=2, metrics_per_host=4, interval_s=10)
        load_fleet(store, fleet)
        session = store.session(cluster.clients[0], 0)
        queries = MonitoringQueries(session, interval_s=10)
        metric = fleet.agents[0].metrics[0]
        now = 1000 + 11 * 10
        result = store.sim.run(until=store.sim.process(
            queries.max_over_window(metric, now=now, window_s=60)))
        assert result is not None
