"""Cross-store conformance matrix.

One seeded operation trace (inserts, updates, reads, deletes, scans) runs
against all six stores, asserting they agree on *semantics* — timing is
free to differ, observable state is not:

- read-your-writes: every read returns exactly what the trace last wrote
  (or ``None`` after a delete);
- scan ordering: rows come back in strictly ascending key order, starting
  at or after the requested key, and every row matches the model (stores
  may legitimately return different *subsets* — a Cassandra scan walks one
  token-owner's range, a sharded MySQL scan one shard — but never stale or
  phantom rows);
- identical final record counts: probing the whole key universe finds the
  same live set in every store.

Voldemort's YCSB client has no scan call, so the matrix asserts that its
scans fail loudly rather than silently returning nothing.
"""

from __future__ import annotations

import random

import pytest

from repro.keyspace import format_key
from repro.sim.cluster import CLUSTER_M, Cluster
from repro.storage.record import APM_SCHEMA
from repro.stores.base import OpError, OpType
from repro.stores.registry import STORE_NAMES, create_store, store_class
from tests.stores.conftest import make_records, run_op

N_LOADED = 300
N_FRESH = 50

#: Semantics-affecting overrides: HBase's client-side write buffer defers
#: puts, which is real behaviour but breaks read-your-writes *by design*;
#: the conformance trace needs autoflush, as YCSB's HBase binding uses for
#: workloads with reads.
STORE_KWARGS = {"hbase": {"client_buffering": False}}


def _full_row(rng: random.Random, key: str) -> tuple:
    return tuple(f"{key[-5:]}:{rng.randrange(1000):03d}".ljust(10, "y")[:10]
                 for __ in range(APM_SCHEMA.field_count))


def _make_trace() -> list[tuple]:
    """The shared op trace: ``(op, key, row_or_None, scan_len)``."""
    rng = random.Random(2012)
    loaded = [key for key, __ in make_records(N_LOADED)]
    fresh = [format_key(N_LOADED + i) for i in range(N_FRESH)]
    unused_fresh = list(fresh)
    known = list(loaded)
    trace: list[tuple] = []
    for __ in range(160):
        roll = rng.random()
        if roll < 0.20 and unused_fresh:
            key = unused_fresh.pop(rng.randrange(len(unused_fresh)))
            known.append(key)
            trace.append((OpType.INSERT, key, _full_row(rng, key), 0))
        elif roll < 0.40:
            key = rng.choice(known)
            trace.append((OpType.UPDATE, key, _full_row(rng, key), 0))
        elif roll < 0.65:
            trace.append((OpType.READ, rng.choice(known), None, 0))
        elif roll < 0.85:
            trace.append((OpType.SCAN, rng.choice(loaded), None,
                          rng.randrange(2, 12)))
        else:
            trace.append((OpType.DELETE, rng.choice(known), None, 0))
    return trace


def _run_store(name: str, trace: list[tuple]) -> dict:
    """Run the trace against one store; returns its observable outcome."""
    cluster = Cluster(CLUSTER_M, 4)
    store = create_store(name, cluster, **STORE_KWARGS.get(name, {}))
    records = make_records(N_LOADED)
    store.load(records)
    session = store.session(cluster.clients[0], 0)

    model = dict(records)
    supports_scans = store_class(name).supports_scans
    scans_checked = 0
    for step, (op, key, row, scan_len) in enumerate(trace):
        if op is OpType.SCAN and not supports_scans:
            with pytest.raises(OpError):
                run_op(store, session.execute(op, key,
                                              scan_length=scan_len))
            continue
        result = run_op(store, session.execute(op, key, row, scan_len))
        if op in (OpType.INSERT, OpType.UPDATE):
            model[key] = row
        elif op is OpType.DELETE:
            model.pop(key, None)
        elif op is OpType.READ:
            assert result == model.get(key), \
                f"{name}: read({key!r}) at op {step} is not " \
                "read-your-writes"
        else:  # scan
            keys = [row_key for row_key, __ in result]
            assert keys == sorted(keys), \
                f"{name}: scan at op {step} returned unordered keys"
            assert all(row_key >= key for row_key in keys), \
                f"{name}: scan at op {step} returned keys before the start"
            assert len(set(keys)) == len(keys), \
                f"{name}: scan at op {step} returned duplicate keys"
            for row_key, row in result:
                assert row == model.get(row_key), \
                    f"{name}: scan at op {step} returned a stale or " \
                    f"phantom row for {row_key!r}"
            scans_checked += 1

    # Final-state census: probe every key the trace could have touched.
    universe = ([key for key, __ in records]
                + [format_key(N_LOADED + i) for i in range(N_FRESH)])
    live = {}
    for key in universe:
        result = run_op(store, session.execute(OpType.READ, key))
        if result is not None:
            live[key] = result
    assert live == model, f"{name}: final state diverged from the model"
    return {"count": len(live), "scans_checked": scans_checked}


@pytest.mark.parametrize("name", STORE_NAMES)
def test_partitioned_write_surfaces_as_infrastructure_fault(name):
    """A write that exhausts its retries against partitioned-away servers
    must land in per-op error stats as an infrastructure fault ("fault"
    kind) — not a store error, an overload rejection, or an expiry — and
    succeed once the partition heals."""
    from repro.ycsb.client import attempt_op
    from repro.ycsb.stats import RunStats

    cluster = Cluster(CLUSTER_M, 4)
    store = create_store(name, cluster, **STORE_KWARGS.get(name, {}))
    store.load(make_records(N_LOADED))
    session = store.session(cluster.clients[0], 0)
    cluster.network.partition([
        [node.name for node in cluster.clients],
        [node.name for node in cluster.servers],
    ])

    sim = cluster.sim
    stats = RunStats()
    retry = store_class(name).retry_policy()
    key = format_key(N_LOADED + 1)
    row = _full_row(random.Random(7), key)
    outcome = {}

    def driver():
        started = sim.now
        error, kind, __ = yield from attempt_op(
            session, OpType.INSERT, key, row, 0, retry)
        stats.record(OpType.INSERT, sim.now - started, error, kind)
        outcome["error"], outcome["kind"] = error, kind

    sim.run(until=sim.process(driver()))
    assert outcome == {"error": True, "kind": "fault"}
    assert stats.histogram(OpType.INSERT).error_kinds.get("fault") == 1
    assert stats.error_kind_total("store") == 0
    assert stats.rejected_ops == 0
    assert stats.expired_ops == 0

    cluster.network.heal()

    def healed():
        error, kind, __ = yield from attempt_op(
            session, OpType.INSERT, key, row, 0, retry)
        outcome["healed_error"] = error

    sim.run(until=sim.process(healed()))
    assert outcome["healed_error"] is False


def test_conformance_matrix_across_all_six_stores():
    trace = _make_trace()
    outcomes = {name: _run_store(name, trace) for name in STORE_NAMES}
    counts = {name: outcome["count"] for name, outcome in outcomes.items()}
    assert len(set(counts.values())) == 1, \
        f"stores disagree on final record count: {counts}"
    # Every scan-capable store actually exercised its scan path.
    for name, outcome in outcomes.items():
        if store_class(name).supports_scans:
            assert outcome["scans_checked"] > 0


def _loaded_session(name: str):
    """A 4-node ``name`` deployment loaded with ``N_LOADED`` records,
    and one session on it."""
    cluster = Cluster(CLUSTER_M, 4)
    store = create_store(name, cluster, **STORE_KWARGS.get(name, {}))
    store.load(make_records(N_LOADED))
    return store, store.session(cluster.clients[0], 0)


@pytest.mark.parametrize("name", STORE_NAMES)
def test_a_returned_row_is_the_callers(name):
    """What ``read`` or ``scan`` returns is a row, an immutable tuple, so
    no caller can move the store through it: a loaded row, and one
    written a moment ago (for the LSM stores still in the memtable,
    which a complete hit answers from), each read and re-read."""
    store, session = _loaded_session(name)
    records = make_records(N_LOADED)
    fresh = format_key(N_LOADED + 7)
    written = _full_row(random.Random(3), fresh)
    run_op(store, session.execute(OpType.INSERT, fresh, written))
    expected = dict([records[5], (fresh, written)])

    for key, row in expected.items():
        for __ in range(2):
            got = run_op(store, session.execute(OpType.READ, key))
            assert type(got) is tuple and got == row, \
                f"{name}: read({key!r}) moved"
    if not store_class(name).supports_scans:
        return
    model = {**dict(records), **expected}
    for key in expected:
        for __ in range(2):
            rows = run_op(store, session.execute(OpType.SCAN, key,
                                                 scan_length=4))
            assert rows, f"{name}: scan from {key!r} found nothing"
            for row_key, row in rows:
                assert type(row) is tuple and row == model[row_key], \
                    f"{name}: scan row {row_key!r} moved"
    for key, row in expected.items():
        assert run_op(store, session.execute(OpType.READ, key)) == row


@pytest.mark.parametrize("name", STORE_NAMES)
def test_a_none_value_is_a_column_not_written(name):
    """A row with ``None`` columns writes the others: the store sizes
    the row it takes, and the read returns the ``None``."""
    store, session = _loaded_session(name)
    key = format_key(N_LOADED + 3)
    assert run_op(store, session.execute(
        OpType.INSERT, key, ("a" * 10, None, None, None, None)))
    assert run_op(store, session.execute(OpType.READ, key)) == (
        "a" * 10, None, None, None, None)


def _placement(store, key: str) -> list[int]:
    """Where each store's own routing puts ``key``: the switch on the
    store's name the audit harness carried before ``Store.homes``."""
    if store.name == "cassandra":
        return store.replicas_of(key, store.replication_factor)
    if store.name == "voldemort":
        return store.replica_nodes_of(key)
    if store.name in ("redis", "mysql"):
        return [store.shard_of(key)]
    if store.name == "voltdb":
        return [store.node_of_partition(store.partition_of(key))]
    return [store.server_of_region(store.region_of(key)).index]


@pytest.mark.parametrize("name, kwargs", [
    *((name, {}) for name in STORE_NAMES),
    ("cassandra", {"replication_factor": 3}),
    ("voldemort", {"replication_factor": 3, "required_writes": 2,
                   "required_reads": 2}),
])
def test_homes_are_where_the_store_routes_the_key(name, kwargs):
    store = create_store(name, Cluster(CLUSTER_M, 4), **kwargs)
    placed = set()
    for key, __ in make_records(200):
        homes = store.homes(key)
        assert homes == _placement(store, key)
        placed.update(homes)
    assert placed == set(range(4))
