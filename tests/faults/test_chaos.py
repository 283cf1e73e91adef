"""Tests for the chaos controller and node-failure semantics."""

import pytest

from repro.faults.chaos import ChaosController
from repro.faults.schedule import FaultSchedule
from repro.sim.cluster import CLUSTER_M, Cluster
from repro.sim.faults import (
    NodeDownError,
    PartitionedError,
    ResourceDrainedError,
)


def make_cluster(n_servers=3):
    return Cluster(CLUSTER_M, n_servers, n_clients=1)


class Listener:
    def __init__(self):
        self.events = []

    def on_node_down(self, node):
        self.events.append(("down", node.name))

    def on_node_up(self, node):
        self.events.append(("up", node.name))


def test_controller_applies_crash_and_restart_at_scheduled_times():
    cluster = make_cluster()
    schedule = FaultSchedule().crash("server-1", at=2.0, restart_after=3.0)
    control = ChaosController(cluster, schedule)
    listener = Listener()
    control.subscribe(listener)
    control.start()
    node = cluster.node("server-1")

    cluster.sim.run(until=1.0)
    assert node.up
    cluster.sim.run(until=2.5)
    assert not node.up
    assert cluster.network.host_is_down("server-1")
    cluster.sim.run(until=6.0)
    assert node.up
    assert node.epoch == 1
    assert not cluster.network.host_is_down("server-1")
    assert listener.events == [("down", "server-1"), ("up", "server-1")]
    assert [(when, what) for when, what in control.log] == [
        (2.0, "crash server-1"), (5.0, "restart server-1")]


def test_empty_schedule_is_a_noop():
    cluster = make_cluster()
    control = ChaosController(cluster, FaultSchedule())
    assert control.start() is None
    assert control.log == []


def test_crash_fails_queued_resource_requests():
    """Processes waiting on a crashed node's CPU get ResourceDrainedError."""
    cluster = make_cluster(2)
    sim = cluster.sim
    node = cluster.servers[0]
    outcomes = []

    def worker():
        try:
            yield from node.cpu(10.0)  # still running at crash time
            outcomes.append("finished")
        except ResourceDrainedError:
            outcomes.append("drained")

    # Fill every core, then queue one more request behind them.
    for __ in range(node.spec.cores + 1):
        sim.process(worker())
    schedule = FaultSchedule().crash("server-0", at=1.0)
    ChaosController(cluster, schedule).start()
    sim.run(until=20.0)
    # The queued request is drained at crash time; processes already
    # holding a core run out their grant (the model does not preempt).
    assert "drained" in outcomes


def test_new_claims_on_crashed_node_fail_immediately():
    cluster = make_cluster(2)
    sim = cluster.sim
    node = cluster.servers[0]
    node.fail()
    outcomes = []

    def late_worker():
        try:
            yield from node.cpu(0.001)
        except ResourceDrainedError:
            outcomes.append(("drained", sim.now))

    sim.process(late_worker())
    sim.run(until=1.0)
    assert outcomes == [("drained", 0.0)]


def test_transfer_to_crashed_node_raises_node_down():
    cluster = make_cluster(2)
    sim = cluster.sim
    cluster.servers[1].fail()
    outcomes = []

    def caller():
        try:
            yield from cluster.network.transfer("server-0", "server-1", 100)
        except NodeDownError:
            outcomes.append(sim.now)

    sim.process(caller())
    sim.run(until=5.0)
    # Connection refused after the RST round trip, not a silent hang.
    assert len(outcomes) == 1
    assert outcomes[0] < cluster.network.spec.unreachable_timeout_s


def test_partition_blocks_cross_group_traffic_until_heal():
    cluster = make_cluster(3)
    sim = cluster.sim
    schedule = FaultSchedule().partition(
        [["server-0", "client-0"], ["server-1", "server-2"]],
        at=1.0, heal_after=2.0)
    ChaosController(cluster, schedule).start()
    outcomes = []

    def crossing(at):
        if at > sim.now:
            yield sim.timeout(at - sim.now)
        try:
            yield from cluster.network.transfer("server-0", "server-1", 50)
            outcomes.append(("ok", at))
        except PartitionedError:
            outcomes.append(("partitioned", at))

    def same_side(at):
        if at > sim.now:
            yield sim.timeout(at - sim.now)
        try:
            yield from cluster.network.transfer("server-1", "server-2", 50)
            outcomes.append(("ok-same-side", at))
        except PartitionedError:  # pragma: no cover - would be a bug
            outcomes.append(("partitioned-same-side", at))

    sim.process(crossing(0.0))    # before the partition
    sim.process(crossing(1.5))    # during
    sim.process(same_side(1.5))   # during, within one side
    sim.process(crossing(3.5))    # after the heal
    sim.run(until=10.0)
    assert ("ok", 0.0) in outcomes
    assert ("partitioned", 1.5) in outcomes
    assert ("ok-same-side", 1.5) in outcomes
    assert ("ok", 3.5) in outcomes


def test_slow_disk_applies_and_restores_degradation():
    cluster = make_cluster(2)
    sim = cluster.sim
    disk = cluster.servers[0].disk
    schedule = FaultSchedule().slow_disk(
        "server-0", at=1.0, factor=8.0, duration=2.0)
    ChaosController(cluster, schedule).start()
    sim.run(until=1.5)
    assert disk.degrade_factor == 8.0
    sim.run(until=4.0)
    assert disk.degrade_factor == 1.0


def test_a_zombie_inside_a_slow_disk_window_restores_only_itself():
    # Each used to overwrite the other's factor and either restore
    # cleared both: 8 -> 25 -> 1.0 at t = 4 with the slow disk still on.
    cluster = make_cluster(2)
    sim = cluster.sim
    disk = cluster.servers[0].disk
    schedule = (FaultSchedule()
                .slow_disk("server-0", at=1.0, factor=8.0, duration=10.0)
                .zombie("server-0", at=2.0, slowdown=25.0, duration=2.0))
    ChaosController(cluster, schedule).start()
    factors = []
    for until in (1.5, 3.0, 5.0, 12.0):
        sim.run(until=until)
        factors.append(disk.degrade_factor)
    assert factors == [8.0, 200.0, 8.0, 1.0]


def test_a_loss_is_declared_at_the_crash_no_restart_follows():
    class SingleCopy:
        name = "single-copy"

        def declared_loss(self, node):
            return f"{node.name} held the only copy"

    cluster = make_cluster(2)
    schedule = (FaultSchedule()
                .crash("server-0", at=1.0, restart_after=2.0)
                .crash("server-0", at=10.0))
    control = ChaosController(cluster, schedule)
    control.subscribe(SingleCopy())
    control.start()
    cluster.sim.run(until=11.0)
    # Not at t = 1.0 as well: that crash was restarted, nothing was lost.
    assert [(entry["t"], entry["node"]) for entry in control.loss_manifest] \
        == [(10.0, "server-0")]


def test_slow_disk_stretches_read_service_time():
    cluster = make_cluster(2)
    sim = cluster.sim
    node = cluster.servers[0]
    durations = []

    def one_read():
        start = sim.now
        yield from node.disk.read(4096, sequential=False)
        durations.append(sim.now - start)

    sim.process(one_read())
    sim.run(until=None)
    node.disk.degrade(8.0)
    sim.process(one_read())
    sim.run(until=None)
    assert durations[1] == pytest.approx(8.0 * durations[0], rel=1e-6)


def test_unknown_fault_target_raises():
    # Rejected when the schedule binds to the cluster, not mid-run.
    cluster = make_cluster(2)
    schedule = FaultSchedule().crash("server-9", at=0.5)
    with pytest.raises(ValueError, match="unknown node 'server-9'"):
        ChaosController(cluster, schedule)
