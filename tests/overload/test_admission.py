"""Admission control: gate semantics and per-store load shedding."""

from collections import Counter
from dataclasses import replace

import pytest

from repro.overload import AdmissionGate, OverloadPolicy
from repro.sim.cluster import CLUSTER_M, Cluster
from repro.sim.faults import OverloadError
from repro.stores.base import OpType
from repro.stores.registry import STORE_NAMES, create_store
from tests.stores.conftest import make_records

#: Same semantics override the conformance matrix needs: HBase's write
#: buffer defers puts, which is orthogonal to admission behaviour.
STORE_KWARGS = {"hbase": {"client_buffering": False}}

#: Tight bound + a burst far larger than it, so every store must shed.
SHED_POLICY = OverloadPolicy(max_queue=2, deadline_s=None,
                             retry_budget_per_s=None, circuit_breaker=False)
N_BURST = 120


class TestAdmissionGate:
    def test_admits_up_to_limit_then_rejects(self):
        gate = AdmissionGate(2, "pool")
        gate.try_admit()
        gate.try_admit()
        with pytest.raises(OverloadError):
            gate.try_admit()
        assert gate.admitted == 2
        assert gate.rejected == 1
        assert gate.peak_in_flight == 2

    def test_release_reopens_admission(self):
        gate = AdmissionGate(1)
        gate.try_admit()
        gate.release()
        gate.try_admit()
        assert gate.rejected == 0
        assert gate.in_flight == 1

    def test_release_without_admit_is_a_bug(self):
        gate = AdmissionGate(1)
        with pytest.raises(RuntimeError):
            gate.release()

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionGate(0)


def _burst_against(name: str):
    """Fire one simultaneous burst of reads at a tightly-bounded store."""
    cluster = Cluster(CLUSTER_M, 4)
    store = create_store(name, cluster, **STORE_KWARGS.get(name, {}))
    records = make_records(200)
    store.load(records)
    store.configure_overload(SHED_POLICY)
    sessions = [store.session(cluster.clients[i % len(cluster.clients)], i)
                for i in range(8)]
    outcomes: Counter = Counter()

    def one_op(i):
        session = sessions[i % len(sessions)]
        key = records[i % len(records)][0]
        try:
            yield from session.execute(OpType.READ, key)
            outcomes["served"] += 1
        except OverloadError:
            outcomes["shed"] += 1

    for i in range(N_BURST):
        cluster.sim.process(one_op(i))
    cluster.sim.run()
    return store, outcomes


@pytest.mark.parametrize("name", STORE_NAMES)
def test_every_store_sheds_under_burst(name):
    store, outcomes = _burst_against(name)
    assert outcomes["served"] + outcomes["shed"] == N_BURST
    # The store survived the burst and kept serving...
    assert outcomes["served"] > 0, f"{name}: admission starved all ops"
    # ...while rejecting deterministically instead of queueing unboundedly.
    assert outcomes["shed"] > 0, f"{name}: nothing was shed at the gate"
    assert store.total_shed() >= outcomes["shed"]


@pytest.mark.parametrize("name", STORE_NAMES)
def test_disarming_stops_shedding(name):
    cluster = Cluster(CLUSTER_M, 4)
    store = create_store(name, cluster, **STORE_KWARGS.get(name, {}))
    store.load(make_records(50))
    store.configure_overload(SHED_POLICY)
    store.configure_overload(None)
    session = store.session(cluster.clients[0], 0)
    done = []

    def one_op(i):
        yield from session.execute(OpType.READ, f"user{i % 50:018d}")
        done.append(i)

    for i in range(40):
        cluster.sim.process(one_op(i))
    cluster.sim.run()
    assert store.total_shed() == 0
    assert len(done) == 40


#: Stores that admit at per-server client connection pools; the others
#: bound executor channels (or, Cassandra, shed at the coordinator).
POOL_STORES = ("mysql", "voldemort")
#: Executor channels on three servers: Redis loops, HBase handler
#: pools, VoltDB's 6 sites a host + the sequencer.
CHANNELS_ON_THREE = {"redis": 3, "hbase": 3, "voltdb": 19}


@pytest.mark.parametrize("max_queue", [None, 0, 2])
@pytest.mark.parametrize("name", STORE_NAMES)
def test_a_server_added_under_a_policy_is_armed_like_the_rest(name,
                                                              max_queue):
    """``max_queue=0`` is a bound ("refuse whatever would wait"), not
    "off": the server a controller adds under overload must not be the
    one unprotected node, and a store that cannot honour the bound says
    so instead of silently running unprotected."""
    cluster = Cluster(CLUSTER_M, 2)
    store = create_store(name, cluster, **STORE_KWARGS.get(name, {}))
    policy = replace(SHED_POLICY, max_queue=max_queue)
    if max_queue == 0 and name in POOL_STORES:
        # A pool of zero connections admits nothing.
        with pytest.raises(ValueError, match=name):
            store.configure_overload(policy)
        assert store.overload is None
        assert store.admission_gates() == []
        return
    store.configure_overload(policy)
    store.grow(cluster.add_server())
    channels = store.overload_channels()
    assert len(channels) == CHANNELS_ON_THREE.get(name, 0)
    assert [channel.max_queue for channel in channels] \
        == [max_queue] * len(channels)
    gated = name in POOL_STORES and max_queue is not None
    assert [gate.limit for gate in store.admission_gates()] \
        == ([max_queue] * 3 if gated else [])
    assert [gate.name.split(":")[1] for gate in store.admission_gates()] \
        == ([node.name for node in cluster.servers] if gated else [])
