"""Unit tests for node/cluster provisioning."""

import pytest

from repro.sim.cluster import CLUSTER_D, CLUSTER_M, Cluster, Node, NodeSpec
from repro.sim.kernel import Simulator
from repro.sim.network import Network


class TestSpecs:
    def test_cluster_m_matches_paper(self):
        node = CLUSTER_M.node
        assert node.cores == 8  # two quad-core Xeons
        assert node.ram_bytes == 16 * 2**30
        assert CLUSTER_M.max_nodes == 16
        assert CLUSTER_M.connections_per_node == 128

    def test_cluster_d_matches_paper(self):
        node = CLUSTER_D.node
        assert node.cores == 4  # two dual-core Xeons
        assert node.ram_bytes == 4 * 2**30
        assert CLUSTER_D.max_nodes == 24
        assert CLUSTER_D.connections_per_node == 8  # 2 per core

    def test_cache_bytes_fraction(self):
        spec = NodeSpec(ram_bytes=10 * 2**30, cache_fraction=0.5)
        assert spec.cache_bytes == 5 * 2**30


class TestNode:
    def test_cpu_scales_with_core_speed(self):
        sim = Simulator()
        network = Network(sim)
        slow = Node(sim, NodeSpec(core_speed=0.5), "slow", network)
        sim.run(until=sim.process(slow.cpu(0.001)))
        assert sim.now == pytest.approx(0.002)

    def test_cores_limit_parallelism(self):
        sim = Simulator()
        network = Network(sim)
        node = Node(sim, NodeSpec(cores=2), "n", network)

        def work():
            yield from node.cpu(1.0)

        done = sim.all_of([sim.process(work()) for __ in range(4)])
        sim.run(until=done)
        assert sim.now == pytest.approx(2.0)


class TestCluster:
    def test_allocates_servers_and_clients(self):
        cluster = Cluster(CLUSTER_M, 6)
        assert cluster.n_servers == 6
        assert len(cluster.clients) == 2  # ceil(6 / 3)

    def test_explicit_client_count(self):
        cluster = Cluster(CLUSTER_M, 4, n_clients=5)
        assert len(cluster.clients) == 5

    def test_rejects_oversized_cluster(self):
        with pytest.raises(ValueError):
            Cluster(CLUSTER_M, CLUSTER_M.max_nodes + 1)

    def test_rejects_empty_cluster(self):
        with pytest.raises(ValueError):
            Cluster(CLUSTER_M, 0)

    def test_client_for_connection_round_robins(self):
        cluster = Cluster(CLUSTER_M, 6)
        clients = {cluster.client_for_connection(i).name for i in range(4)}
        assert len(clients) == 2

