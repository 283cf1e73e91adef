"""Unit tests for ClusterTopology: actuation, billing, and the ledger."""

import pytest

from repro.control import ClusterTopology
from repro.sim.cluster import CLUSTER_M, Cluster
from repro.stores.redis import RedisStore
from tests.stores.conftest import make_records, run_op


@pytest.fixture
def deployed():
    cluster = Cluster(CLUSTER_M, 2)
    store = RedisStore(cluster)
    store.load(make_records(400))
    return cluster, store


def test_scale_out_admits_and_bills(deployed):
    cluster, store = deployed
    topology = ClusterTopology(cluster, store)
    sim = cluster.sim
    node = sim.run(until=sim.process(topology.scale_out(0.05)))
    assert node in cluster.active_servers
    assert cluster.n_active == 3
    assert len(store.members()) == 3
    # ~1/3 of the keys crossed the wire, and that cost simulated time
    # beyond the provisioning delay.
    assert topology.bytes_moved > 0
    assert topology.moves_billed > 0
    assert sim.now > 0.05


def test_scale_in_drains_then_retires(deployed):
    cluster, store = deployed
    topology = ClusterTopology(cluster, store)
    sim = cluster.sim
    node = sim.run(until=sim.process(topology.scale_out(0.0)))
    sim.run(until=sim.process(topology.scale_in(node)))
    assert node.retired
    assert cluster.n_active == 2
    assert len(store.members()) == 2
    # Every loaded record is still reachable after the round trip.
    session = store.session(cluster.clients[0], 0)
    for key, row in make_records(400)[::37]:
        assert run_op(store, session.read(key)) == row


def test_replace_recovers_in_slot(deployed):
    cluster, store = deployed
    topology = ClusterTopology(cluster, store)
    sim = cluster.sim
    victim = cluster.servers[1]
    victim.fail()
    store.on_node_down(victim)
    assert not victim.up
    sim.run(until=sim.process(topology.replace(victim, 0.1)))
    assert victim.up
    assert sim.now == pytest.approx(0.1)


def test_replace_is_noop_when_node_is_up(deployed):
    cluster, store = deployed
    topology = ClusterTopology(cluster, store)
    sim = cluster.sim
    node = cluster.servers[0]
    sim.run(until=sim.process(topology.replace(node, 0.0)))
    assert node.up


def test_node_seconds_ledger(deployed):
    cluster, store = deployed
    topology = ClusterTopology(cluster, store)
    sim = cluster.sim
    node = sim.run(until=sim.process(topology.scale_out(0.0)))
    sim.run(until=sim.process(topology.scale_in(node)))
    left = sim.now
    total = topology.node_seconds(until=10.0)
    # Two permanent nodes for 10s each, plus the transient: provisioned
    # at t=0 (zero lead time), billed until its retirement — the
    # rebalance charge time is rented capacity too.
    assert total == pytest.approx(20.0 + left)


def test_catch_up_is_clean_when_quiesced(deployed):
    cluster, store = deployed
    topology = ClusterTopology(cluster, store)
    sim = cluster.sim
    sim.run(until=sim.process(topology.scale_out(0.0)))
    # With no writes in flight the catch-up oracle finds nothing stale.
    assert store.rebalance_moves() == []
