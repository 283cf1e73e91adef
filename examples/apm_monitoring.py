#!/usr/bin/env python3
"""APM end-to-end: agents -> store -> monitoring queries.

Recreates the paper's motivating scenario (Section 2): a fleet of
monitoring agents reports metrics every 10 seconds into a key-value
store, and operators ask sliding-window questions such as

* "What was the maximum number of connections on host X within the
  last 10 minutes?"
* "What was the average CPU utilization of Web servers within the
  last 15 minutes?"

Run with::

    python examples/apm_monitoring.py
"""

from repro.core import AgentFleet, MonitoringQueries
from repro.sim.cluster import CLUSTER_M, Cluster
from repro.stores import create_store


def main():
    # A monitored estate: 20 hosts x 50 metrics, reporting every 10 s.
    fleet = AgentFleet(n_hosts=20, metrics_per_host=50, interval_s=10)
    print(f"agent fleet: {fleet.n_hosts} hosts x "
          f"{fleet.metrics_per_host} metrics "
          f"= {fleet.measurements_per_second:,.0f} measurements/s")

    # The storage tier: a 4-node Cassandra ring on Cluster M hardware.
    cluster = Cluster(CLUSTER_M, 4)
    store = create_store("cassandra", cluster)

    # One hour of history: 360 reporting intervals.
    start_ts = 1_332_988_000
    intervals = 360
    print(f"loading {intervals} intervals "
          f"({fleet.n_hosts * fleet.metrics_per_host * intervals:,} "
          "measurements)...")
    store.load(m.to_row() for m in fleet.stream(start_ts, intervals))
    store.warm_caches()

    now = start_ts + (intervals - 1) * fleet.interval_s
    session = store.session(cluster.clients[0], 0)
    queries = MonitoringQueries(session, interval_s=fleet.interval_s)
    sim = cluster.sim

    # On-line query 1: max of one host's connection count, last 10 min.
    connection_metrics = [
        m for m in fleet.agents[0].metrics if "ConnectionCount" in m.metric
    ]
    metric = connection_metrics[0]
    t0 = sim.now
    answer = sim.run(until=sim.process(
        queries.max_over_window(metric, now=now, window_s=600)))
    print(f"\nmax({metric}) over last 10 min = {answer:.1f}   "
          f"[query latency: {(sim.now - t0) * 1000:.1f} ms simulated]")

    # On-line query 2: average CPU across all web servers, last 15 min.
    cpu_metrics = [
        m for agent in fleet.agents[:10]
        for m in agent.metrics if "CPUUtilization" in m.metric
    ]
    t0 = sim.now
    answer = sim.run(until=sim.process(
        queries.avg_over_window(cpu_metrics, now=now, window_s=900)))
    print(f"avg(CPUUtilization) across {len(cpu_metrics)} web-server "
          f"metrics, last 15 min = {answer:.1f}   "
          f"[query latency: {(sim.now - t0) * 1000:.1f} ms simulated]")

    # Archive query: average response time over the whole stored hour.
    response_metrics = [
        m for m in fleet.agents[1].metrics
        if "AverageResponseTime" in m.metric
    ]
    t0 = sim.now
    answer = sim.run(until=sim.process(queries.avg_over_period(
        response_metrics, start=start_ts, end=now)))
    print(f"avg(AverageResponseTime) over the archived hour = "
          f"{answer:.1f}   "
          f"[query latency: {(sim.now - t0) * 1000:.1f} ms simulated]")

    print("\nwrite-side check: the workload is append-only; the store "
          f"now holds {sum(e.record_count for e in store.engines):,} "
          "measurements")


if __name__ == "__main__":
    main()
