"""Six-store conformance: online grow-then-shrink under live writes.

The contract every elastic store must honour (the reason the control
plane may rebalance mid-run at all):

* **no acknowledged write is lost** — writers keep inserting while the
  topology grows and then shrinks; every key whose insert was
  acknowledged must read back afterwards.  This specifically exercises
  the in-flight window: an operation routed under the old ownership map
  that applies after the switch must redirect to the current owner
  (each store's MOVED / NotServingRegion / re-plan analogue);
* **nothing is stranded** — once the run quiesces, a
  :meth:`~repro.stores.base.Store.rebalance_moves` catch-up pass finds
  no key living off its owner;
* **determinism** — the same seeded scenario run twice produces a
  byte-identical JSON digest of acknowledgement times, move bills, and
  the final clock, and that digest is the committed one;
* **the bill itself** — on a quiesced store, growing 2 -> 3 and then
  draining server 0 returns exactly the committed ``(src, dst, nbytes)``
  lists and leaves the committed members and per-server entry counts,
  so a rewrite of the reshard path cannot move a byte of what the
  topology layer charges.  Replicated Cassandra / Voldemort refuse to
  reshard and their catch-up pass is a no-op.

Regenerate ``rebalance_golden.json`` after an *intentional* change of
what a reshard moves with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/control/test_rebalance_conformance.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.control import ClusterTopology
from repro.keyspace import format_key
from repro.sim.cluster import CLUSTER_M, Cluster
from repro.storage.record import APM_SCHEMA
from repro.stores import STORE_NAMES, create_store
from repro.stores.base import OpError
from tests.goldens import check_golden
from tests.stores.conftest import make_records

GOLDEN_PATH = Path(__file__).parent / "rebalance_golden.json"

#: Store-construction overrides for the conformance scenario.  HBase
#: runs with client buffering off: a locally-buffered "ack" is not an
#: acknowledgement in this test's sense.
STORE_KWARGS = {"hbase": {"client_buffering": False}}

N_PRELOADED = 240
N_WRITERS = 4
OPS_PER_WRITER = 120
WRITE_SPACING_S = 0.0008


def _writer_row(serial):
    return (f"w{serial:05d}".ljust(10, "y"),) * APM_SCHEMA.field_count


def _run_scenario(store_name):
    """Grow 2 -> 3 mid-write, then shrink back; return (digest, state)."""
    cluster = Cluster(CLUSTER_M, 2)
    sim = cluster.sim
    store = create_store(store_name, cluster,
                         **STORE_KWARGS.get(store_name, {}))
    store.load(make_records(N_PRELOADED))
    topology = ClusterTopology(cluster, store)
    acked = []

    def writer(index):
        session = store.session(cluster.clients[0], index)
        for op in range(OPS_PER_WRITER):
            serial = index * OPS_PER_WRITER + op
            key = format_key(100_000 + serial)
            try:
                ok = yield from session.insert(key, _writer_row(serial))
            except OpError:
                ok = False
            if ok:
                acked.append((round(sim.now, 9), key))
            yield sim.timeout(WRITE_SPACING_S)

    def operator():
        # Let writes build up in-flight state, then flip the topology
        # twice while they keep flowing.
        yield sim.timeout(0.03)
        node = yield from topology.scale_out(provision_delay_s=0.01)
        yield sim.timeout(0.06)
        yield from topology.scale_in(node)

    for index in range(N_WRITERS):
        sim.process(writer(index), name=f"conformance-writer-{index}")
    sim.process(operator(), name="conformance-operator")
    sim.run()

    digest = hashlib.sha256(json.dumps({
        "acked": acked,
        "moves_billed": topology.moves_billed,
        "bytes_moved": topology.bytes_moved,
        "end": round(sim.now, 9),
    }, sort_keys=True).encode()).hexdigest()
    return digest, cluster, store, acked


@pytest.mark.parametrize("store_name", STORE_NAMES)
def test_no_acknowledged_write_lost(store_name):
    __, cluster, store, acked = _run_scenario(store_name)
    assert cluster.n_active == 2
    assert len(store.members()) == 2
    # The scenario genuinely overlapped writes with the rebalance.
    first_ack = min(t for t, __ in acked)
    last_ack = max(t for t, __ in acked)
    assert first_ack < 0.03 and last_ack > 0.09
    # Every acknowledged write survives the grow-then-shrink round trip.
    session = store.session(cluster.clients[0], N_WRITERS)
    sim = store.sim

    def read_back():
        missing = []
        for __, key in acked:
            value = yield from session.read(key)
            if value is None:
                missing.append(key)
        return missing

    missing = sim.run(until=sim.process(read_back()))
    assert missing == [], (
        f"{store_name}: {len(missing)} acknowledged writes lost "
        f"(first: {missing[:3]})")
    # And the catch-up oracle agrees: nothing lives off its owner.
    assert store.rebalance_moves() == []


@pytest.mark.parametrize("store_name", STORE_NAMES)
def test_grow_shrink_is_deterministic(store_name):
    first, *__ = _run_scenario(store_name)
    second, *__ = _run_scenario(store_name)
    assert first == second
    check_golden(GOLDEN_PATH, ("live_digest", store_name), first, indent=1)


# -- the quiesced move bill ----------------------------------------------------


def _entries_per_server(store):
    """Live entries each server holds, by the store's own containers."""
    name = store.name
    if name == "redis":
        return [len(shard) for shard in store.shards]
    if name == "mysql":
        return [len(table) for table in store.tables]
    if name == "voldemort":
        return [len(tree) for tree in store.trees]
    if name == "voltdb":
        return [sum(len(table) for table in store._host_partitions(host))
                for host in range(store.cluster.n_servers)]
    if name == "cassandra":
        return [engine.record_count for engine in store.engines]
    if name == "hbase":
        return [sum(engine.record_count for engine in server.regions.values())
                for server in store.region_servers]
    raise AssertionError(f"no entry count for store {name!r}")


def _quiesced(store_name, **kwargs):
    cluster = Cluster(CLUSTER_M, 2)
    store = create_store(store_name, cluster,
                         **STORE_KWARGS.get(store_name, {}), **kwargs)
    store.load(make_records(N_PRELOADED))
    return cluster, store


@pytest.mark.parametrize("store_name", STORE_NAMES)
def test_quiesced_move_bill_matches_golden(store_name):
    cluster, store = _quiesced(store_name)
    observed = {"loaded": _entries_per_server(store)}
    grown = store.grow(cluster.add_server())
    observed["grow"] = {"moves": [list(move) for move in grown],
                        "members": store.members(),
                        "entries": _entries_per_server(store),
                        "catch_up": store.rebalance_moves()}
    drained = store.shrink(0)
    observed["shrink"] = {"moves": [list(move) for move in drained],
                          "members": store.members(),
                          "entries": _entries_per_server(store),
                          "catch_up": store.rebalance_moves()}
    observed["errors"] = store.errors
    # Whatever the bytes, a reshard strands and loses nothing.
    assert observed["grow"]["catch_up"] == []
    assert observed["shrink"]["catch_up"] == []
    assert observed["shrink"]["members"] == [1, 2]
    assert observed["shrink"]["entries"][0] == 0
    for step in ("grow", "shrink"):
        assert sum(observed[step]["entries"]) == N_PRELOADED
    check_golden(GOLDEN_PATH, ("quiesced_bill", store_name), observed,
                 indent=1)


@pytest.mark.parametrize("store_name,kwargs", [
    ("cassandra", {"replication_factor": 2}),
    ("voldemort", {"replication_factor": 2, "required_writes": 2,
                   "required_reads": 1}),
])
def test_replicated_stores_refuse_to_reshard(store_name, kwargs):
    """Replicas hold keys they do not own on purpose: ``grow``/``shrink``
    raise before touching anything and the catch-up pass moves nothing."""
    cluster, store = _quiesced(store_name, **kwargs)
    before = _entries_per_server(store)
    assert sum(before) == 2 * N_PRELOADED
    with pytest.raises(ValueError):
        store.grow(cluster.add_server())
    with pytest.raises(ValueError):
        store.shrink(0)
    assert store.rebalance_moves() == []
    assert store.members() == [0, 1]
    assert _entries_per_server(store) == before
