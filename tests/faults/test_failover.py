"""Store-level failure handling: failover, hints, reassignment, outage.

These tests pin the architectural contrast the fault-injection subsystem
exists to show: replicated Cassandra rides through a node crash, the
HBase master re-homes a dead server's regions, and the client-sharded
deployments simply lose the crashed shard's keyspace.
"""

from dataclasses import replace

import pytest

from repro.faults.schedule import FaultSchedule
from repro.sim.cluster import CLUSTER_M, Cluster
from repro.stores.cassandra import CassandraStore
from repro.stores.hbase import HBaseStore
from repro.ycsb.runner import run_benchmark
from repro.ycsb.workload import WORKLOADS

#: Few connections keep the closed-loop op count (and the wall time of
#: these tests) small without changing the failure semantics under test.
SMALL_M = replace(CLUSTER_M, connections_per_node=4)


@pytest.mark.slow
def test_cassandra_quorum_survives_single_node_crash():
    """RF=3/quorum on 3 nodes: one crash, zero visible errors, recovery."""
    schedule = FaultSchedule().crash("server-1", at=0.6, restart_after=0.7)
    result = run_benchmark(
        "cassandra", WORKLOADS["RW"], 3,
        cluster_spec=SMALL_M, records_per_node=300, seed=11,
        fault_schedule=schedule, duration_s=2.0, warmup_ops=0,
        store_kwargs={"replication_factor": 3,
                      "consistency_level": "quorum"},
    )
    timeline = result.timeline
    assert timeline is not None
    # The coordinator fails over / the quorum absorbs the dead replica:
    # clients see (almost) no errors right through the outage.
    assert timeline.error_rate_between(0.0, 2.0) < 0.05
    # Throughput during the outage dips but does not go dark ...
    before = timeline.throughput_between(0.0, 0.5)
    during = timeline.throughput_between(0.75, 1.25)
    after = timeline.throughput_between(1.5, 2.0)
    assert during > 0.25 * before
    # ... and recovers once the node restarts.
    assert after > 0.7 * before
    assert [what for __, what in result.fault_log] == [
        "crash server-1", "restart server-1"]


def test_cassandra_hinted_handoff_queues_and_replays():
    """Writes during an outage queue hints; the restart replays them."""
    cluster = Cluster(CLUSTER_M, 3, n_clients=1)
    store = CassandraStore(cluster, replication_factor=3,
                           consistency_level="quorum")
    session = store.session(cluster.clients[0], 0)
    down = cluster.servers[1]
    down.fail()

    def write():
        ok = yield from session.insert(
            "user00000000000000000042", ("v" * 10, None, None, None, None))
        return ok

    proc = cluster.sim.process(write())
    cluster.sim.run(until=proc)
    # RF=3 on 3 nodes: every key's replica set includes the dead node.
    assert store.hints_queued >= 1
    assert store.hints.get(1)

    down.recover()
    store.on_node_up(down)
    cluster.sim.run(until=None)
    assert store.hints_replayed == store.hints_queued
    assert not store.hints.get(1)
    # The replayed mutation is actually in the restarted replica's engine.
    assert store.engines[1].get("user00000000000000000042").row


@pytest.mark.slow
def test_redis_loses_crashed_shard_keyspace_for_good():
    """Client-side sharding: a dead shard's keys stay dead (no failover)."""
    schedule = FaultSchedule().crash("server-0", at=0.5)
    result = run_benchmark(
        "redis", WORKLOADS["R"], 4,
        cluster_spec=SMALL_M, records_per_node=300, seed=11,
        fault_schedule=schedule, duration_s=1.5, warmup_ops=0,
    )
    timeline = result.timeline
    # Pre-crash: essentially clean (a few OOM inserts at most).
    assert timeline.error_rate_between(0.0, 0.5) < 0.10
    # Post-crash: roughly the dead shard's keyspace share (~25% on four
    # nodes, modulo the hash ring's imbalance) fails — persistently.
    late_rate = timeline.error_rate_between(0.75, 1.5)
    assert 0.10 < late_rate < 0.45
    # No recovery without a restart: the tail is as bad as the onset.
    assert timeline.error_rate_between(1.25, 1.5) > 0.10


def test_hbase_master_reassigns_dead_servers_regions():
    cluster = Cluster(CLUSTER_M, 3, n_clients=1)
    store = HBaseStore(cluster)
    dead = store.region_servers[1]
    owned = sorted(dead.regions)
    assert owned  # precondition: the server owns regions

    dead.node.fail()
    store.on_node_down(dead.node)
    cluster.sim.run(until=HBaseStore.REGION_REASSIGN_DELAY_S + 1.0)

    assert dead.regions == {}
    assert store.regions_reassigned == len(owned)
    for region_id in owned:
        new_home = store.server_of_region(region_id)
        assert new_home is not dead
        assert new_home.node.up
        assert region_id in new_home.regions


def test_hbase_reassignment_skipped_if_node_returns_in_time():
    """A quick restart beats the master's reassignment timer."""
    cluster = Cluster(CLUSTER_M, 3, n_clients=1)
    store = HBaseStore(cluster)
    target = store.region_servers[0]
    owned = sorted(target.regions)

    target.node.fail()
    store.on_node_down(target.node)
    cluster.sim.run(until=HBaseStore.REGION_REASSIGN_DELAY_S / 2)
    target.node.recover()
    store.on_node_up(target.node)
    cluster.sim.run(until=HBaseStore.REGION_REASSIGN_DELAY_S + 1.0)

    assert sorted(target.regions) == owned
    assert store.regions_reassigned == 0
