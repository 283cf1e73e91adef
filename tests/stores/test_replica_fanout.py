"""Differential suite for the replicated request paths.

Cassandra's coordinator and Voldemort's client both answer "which
replicas are live, are there enough, send to each, wait for k, merge
the newest" — the paths the audit layer exists to check, and the ones a
benchmark number is worthless without (a replicated path measured but
never validated under failure).  The hand-written bodies those sessions
carried live on in ``tests/stores/reference_fanouts.py``; whatever the
sessions call today must drive the kernel through the same event
sequence and leave the same results, error texts, version maps, hint
queues, counters and span trees, with every replica live, one crashed,
one partitioned but "up", a coordinator that holds a replica and one
that does not, fewer live than the quorum needs, and a replica crashing
and restarting under load — inside and outside a sampled trace.
"""

import pytest

from repro.keyspace import format_key
from repro.metrics import MetricsRegistry
from repro.sim.cluster import CLUSTER_M, Cluster
from repro.stores.registry import create_store
from repro.trace import Tracer
from tests.sim.test_channel_hold import _span_tree
from tests.stores.conftest import make_records
from tests.stores.reference_fanouts import REFERENCE

#: deployment id -> (store, constructor arguments, acks a write waits
#: for, replicas a read consults).
DEPLOYMENTS = {
    "cassandra-rf1": ("cassandra", {}, 1, 1),
    "cassandra-one": ("cassandra", {
        "replication_factor": 3}, 1, 1),
    "cassandra-quorum": ("cassandra", {
        "replication_factor": 3, "consistency_level": "quorum",
        "read_consistency": "quorum"}, 2, 2),
    "cassandra-all": ("cassandra", {
        "replication_factor": 3, "consistency_level": "all",
        "read_consistency": "all"}, 3, 3),
    "voldemort-n1": ("voldemort", {}, 1, 1),
    "voldemort-r1w1": ("voldemort", {"replication_factor": 3}, 1, 1),
    "voldemort-r2w2": ("voldemort", {
        "replication_factor": 3, "required_writes": 2,
        "required_reads": 2}, 2, 2),
    "voldemort-r3w3": ("voldemort", {
        "replication_factor": 3, "required_writes": 3,
        "required_reads": 3}, 3, 3),
}

N_SERVERS = 4
KEYS = [format_key(i) for i in (3, 11, 27, 41)]


def _replicas(store, key):
    if store.name == "cassandra":
        return store.replicas_of(key, store.replication_factor)
    return store.replica_nodes_of(key)


# -- the replica states --------------------------------------------------------
#
# A scenario prepares the cluster and returns timed faults
# ``(instant, action)`` to inject while the clients run.


def _all_live(cluster, store, needed):
    return []


def _one_down(cluster, store, needed):
    cluster.servers[_replicas(store, KEYS[0])[-1]].fail()
    return []


def _one_partitioned(cluster, store, needed):
    """Cut off but "up": liveness checks pass, requests time out."""
    victim = cluster.servers[_replicas(store, KEYS[0])[-1]]
    cluster.network.partition([[victim.name]])
    return []


def _too_few_live(cluster, store, needed):
    """One fewer live replica of ``KEYS[0]`` than the larger quorum."""
    replicas = _replicas(store, KEYS[0])
    for index in replicas[:len(replicas) - needed + 1]:
        cluster.servers[index].fail()
    return []


def _crash_and_restart(cluster, store, needed):
    """A replica dies under load and comes back: a fan-out in flight
    loses an acknowledgement, later writes queue hints (Cassandra), the
    restart replays them."""
    victim = cluster.servers[_replicas(store, KEYS[0])[0]]

    def restart():
        victim.recover()
        store.on_node_up(victim)
    return [(0.0011, victim.fail), (0.0042, restart)]


SCENARIOS = {
    "all-live": _all_live,
    "one-down": _one_down,
    "one-partitioned": _one_partitioned,
    "too-few-live": _too_few_live,
    "crash-and-restart": _crash_and_restart,
}


def _observe(deployment, scenario, traced, reference):
    """Everything one scenario leaves behind, driven event by event."""
    name, kwargs, write_acks, read_acks = DEPLOYMENTS[deployment]
    cluster = Cluster(CLUSTER_M, N_SERVERS)
    store = create_store(name, cluster, **kwargs)
    store.load(make_records(60))
    store.warm_caches()
    registry = MetricsRegistry(cluster.sim)
    store.attach_metrics(registry)
    sim = cluster.sim
    faults = SCENARIOS[scenario](cluster, store, max(write_acks, read_acks))
    tracer = Tracer(sim) if traced else None
    outcomes = []

    def call(session, op, *args):
        if reference:
            return REFERENCE[name][op](session, *args)
        return getattr(session, op)(*args)

    def client(index, start):
        session = store.session(cluster.clients[0], index)
        yield sim.timeout(start)
        for round_ in range(2):
            for key in KEYS:
                row = (f"c{index}r{round_}-{key[-4:]}",) + (None,) * 4
                ops = [("insert", key, row), ("read", key),
                       ("delete", key), ("read", key),
                       ("insert", key, row), ("read", key)]
                if name == "cassandra":
                    ops.append(("scan", key, 5))
                for op, *args in ops:
                    tag = f"c{index}:{round_}:{op}:{key[-4:]}"
                    trace = tracer.begin(op, tag, index) if traced else None
                    try:
                        result = yield from call(session, op, *args)
                        outcomes.append((tag, sim.now, "ok", result))
                    except Exception as exc:  # every way out is observed
                        outcomes.append((tag, sim.now, type(exc).__name__,
                                         str(exc)))
                    if traced:
                        tracer.complete(trace)

    def inject(at, action):
        yield sim.timeout(at)
        action()

    for index in range(3):
        sim.process(client(index, index * 1.3e-4), name=f"client-{index}")
    for at, action in faults:
        sim.process(inject(at, action), name="fault")

    events = []
    while True:
        event = sim._pop()
        if event is None:
            break
        events.append((sim.now, event._qseq, type(event).__name__))
        event._fire()

    observed = {
        "events": events,
        "sequence": sim._sequence,
        "end": sim.now,
        "outcomes": outcomes,
        "versions": [dict(store.versions[i]) for i in range(N_SERVERS)],
        "write_clock": store._write_clock,
        "metrics": registry.snapshot(),
        "spans": {trace.key: _span_tree(trace.root)
                  for trace in tracer.traces} if traced else None,
    }
    if name == "cassandra":
        observed["hints"] = (store.hints, store.hints_queued,
                             store.hints_replayed)
        observed["held"] = [engine.record_count for engine in store.engines]
    else:
        observed["held"] = [len(tree) for tree in store.trees]
        observed["log_bytes"] = list(store.log_bytes)
    return observed


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
def test_session_matches_its_hand_written_reference(deployment, scenario,
                                                    traced):
    real = _observe(deployment, scenario, traced, reference=False)
    want = _observe(deployment, scenario, traced, reference=True)
    for index, (got, expected) in enumerate(zip(real["events"],
                                                want["events"])):
        assert got == expected, (
            f"first divergence at kernel event {index}: "
            f"real={got!r} reference={expected!r}")
    assert real == want


# -- the scenarios are what they say they are ----------------------------------


def _kinds(observed, op=None):
    return {kind for tag, __, kind, __ in observed["outcomes"]
            if op is None or f":{op}:" in tag}


def _texts(observed, kind):
    return {text for __, __, k, text in observed["outcomes"] if k == kind}


def _metric(observed, prefix):
    return sum(value for channel, __, value in observed["metrics"]
               if channel.startswith(prefix))


def _spans(observed, name):
    def walk(tree):
        if tree[0] == name:
            yield tree
        for child in tree[5]:
            yield from walk(child)
    return [span for root in observed["spans"].values()
            for span in walk(root)]


def test_scenarios_end_the_way_they_are_named():
    """A differential suite whose scenarios all succeed compares nothing."""
    def run(deployment, scenario, traced=True):
        return _observe(deployment, scenario, traced, reference=False)

    live = run("cassandra-quorum", "all-live")
    assert _kinds(live) == {"ok"}
    assert live["hints"] == ({}, 0, 0)
    assert _metric(live, "store_replica_fanout_total") > 0
    waits = _spans(live, "replica_wait")
    assert waits and all(span[4] == {"needed": 2, "live": 3}
                         for span in waits)
    # Four servers, three replicas: some coordinators hold one, some
    # do not — both the local and the forwarded leg are driven.
    roots = [root for root in live["spans"].values()
             if "replicas" in (root[4] or {})]
    holds = {root[4]["coordinator"] in root[4]["replicas"]
             for root in roots}
    assert holds == {True, False}
    one = run("cassandra-one", "all-live")
    served = {root[4]["coordinator"] == root[4]["owner"]
              for root in one["spans"].values()
              if "owner" in (root[4] or {})}
    assert served == {True, False}

    down = run("cassandra-quorum", "one-down")
    assert _kinds(down) == {"ok"}
    assert down["hints"][1] > 0 and down["hints"][2] == 0

    cut = run("cassandra-all", "one-partitioned")
    assert "PartitionedError" in _kinds(cut)
    assert cut["hints"][1] == 0  # it looks up: nobody queues a hint

    few = run("cassandra-quorum", "too-few-live")
    assert _texts(few, "UnavailableError") == {
        "1/3 replicas live, consistency 'quorum' needs 2",
        "1/3 replicas live, read consistency 'quorum' needs 2"}
    assert "ok" in _kinds(few)  # other keys keep their quorum
    gone = run("cassandra-one", "too-few-live")
    assert any(text.startswith("no live replica of")
               for text in _texts(gone, "UnavailableError"))
    single = run("cassandra-rf1", "one-down")
    assert any(text.startswith("single replica of")
               for text in _texts(single, "UnavailableError"))

    bounced = run("cassandra-quorum", "crash-and-restart")
    assert bounced["hints"][1] > 0
    assert bounced["hints"][2] == bounced["hints"][1]  # all replayed
    assert bounced["hints"][0] == {}

    dynamo = run("voldemort-r2w2", "all-live")
    assert _kinds(dynamo) == {"ok"}
    assert any(len(versions) for versions in dynamo["versions"])
    reads = [root for root in dynamo["spans"].values()
             if "read_acks" in (root[4] or {})]
    assert reads and all(len(root[4]["replicas"]) == 2 for root in reads)

    assert _kinds(run("voldemort-r2w2", "one-down")) == {"ok"}
    strict = run("voldemort-r3w3", "one-partitioned")
    assert "PartitionedError" in _kinds(strict, "delete")
    assert "PartitionedError" in _kinds(strict, "insert")
    starved = run("voldemort-r2w2", "too-few-live")
    key = KEYS[0]
    assert _texts(starved, "UnavailableError") == {
        f"1/3 replicas of {key!r} live, W=2",
        f"1/3 replicas of {key!r} live, R=2"}
    assert _kinds(run("voldemort-r3w3", "crash-and-restart")) >= {
        "ok", "UnavailableError"}
