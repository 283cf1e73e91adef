"""The replica fan-outs as each replicated store carried them.

Until the quorum call was written once, ``CassandraSession`` spelled
"client -> coordinator -> replica(s)" four times (``_route``,
``_one_read``, ``_replicated_read``, ``_replicated_insert``) and
``VoldemortSession`` spelled "fan to the preference list, wait for k"
three times (read, insert, delete).  Those hand-written bodies live on
here, unchanged but for ``self`` becoming ``session``, as *reference
implementations* (the method of ``tests/sim/test_channel_hold.py``):
``tests/stores/test_replica_fanout.py`` drives them and the sessions'
own methods through the same scenarios and compares kernel event
sequences, results, version maps, hint counts and error texts.

They lean only on what a store models and on the bookkeeping names a
store answers to wherever it is implemented: ``replicas_of`` /
``replica_nodes_of``, ``_apply_read`` / ``_apply_write`` /
``_apply_delete``, ``node_is_up``, ``next_write_version``, ``versions``,
``queue_hint``, ``required_acks`` / ``required_read_acks``, and the
session's ``_next_coordinator``.
"""

from repro.sim.faults import UnavailableError

# -- Cassandra -----------------------------------------------------------------


def _versioned_read(store, replica, key):
    row = yield from store._apply_read(replica, key)
    return row, store.versions[replica].get(key, 0)


def cassandra_route(session, owner, handler, request_bytes, response_bytes):
    """Client -> coordinator (-> owner) -> back, with CPU charges."""
    store = session.store
    sim = store.sim
    coordinator = session._next_coordinator()
    if sim.tracer is not None and sim.context is not None:
        sim.tracer.annotate(coordinator=coordinator, owner=owner)
    yield from store.client_cpu(session.client)
    coordinator_node = store.cluster.servers[coordinator]

    if coordinator == owner:
        server_work = handler
    else:
        def forwarded():
            yield from coordinator_node.cpu(store.COORDINATOR_CPU)
            result = yield from store.cluster.network.rpc(
                coordinator_node, store.cluster.servers[owner],
                request_bytes, response_bytes, handler,
            )
            return result
        server_work = forwarded()

    result = yield from store.cluster.network.rpc(
        session.client, coordinator_node, request_bytes, response_bytes,
        server_work,
    )
    return result


def cassandra_read(session, key):
    store = session.store
    if store.replication_factor > 1:
        if store.required_read_acks() > 1:
            result = yield from _cassandra_replicated_read(session, key)
            return result
        result = yield from _cassandra_one_read(session, key)
        return result
    owner = store.live_replica_of(key)
    result = yield from cassandra_route(
        session, owner, store._apply_read(owner, key),
        store.request_bytes(key), store.response_bytes(1),
    )
    return result


def _cassandra_one_read(session, key):
    store = session.store
    sim = store.sim
    replicas = store.replicas_of(key, store.replication_factor)
    live = [r for r in replicas if store.node_is_up(r)]
    if not live:
        raise UnavailableError(f"no live replica of {key!r} "
                               f"(RF={store.replication_factor})")
    coordinator = session._next_coordinator()
    serving = coordinator if coordinator in live else live[0]
    coordinator_node = store.cluster.servers[coordinator]
    request = store.request_bytes(key)
    response = store.response_bytes(1)
    if sim.tracer is not None and sim.context is not None:
        sim.tracer.annotate(coordinator=coordinator, owner=serving)
    yield from store.client_cpu(session.client)

    if coordinator == serving:
        server_work = store._apply_read(serving, key)
    else:
        def forwarded():
            yield from coordinator_node.cpu(store.COORDINATOR_CPU)
            result = yield from store.cluster.network.rpc(
                coordinator_node, store.cluster.servers[serving],
                request, response, store._apply_read(serving, key),
            )
            return result
        server_work = forwarded()

    result = yield from store.cluster.network.rpc(
        session.client, coordinator_node, request, response, server_work,
    )
    return result


def _cassandra_replicated_read(session, key):
    store = session.store
    sim = store.sim
    replicas = store.replicas_of(key, store.replication_factor)
    needed = store.required_read_acks()
    request = store.request_bytes(key)
    response = store.response_bytes(1)
    coordinator = session._next_coordinator()
    coordinator_node = store.cluster.servers[coordinator]
    if sim.tracer is not None and sim.context is not None:
        sim.tracer.annotate(coordinator=coordinator,
                            replicas=list(replicas),
                            read_acks=needed)
    yield from store.client_cpu(session.client)

    def coordinate_read():
        yield from coordinator_node.cpu(store.COORDINATOR_CPU)
        live = [r for r in replicas if store.node_is_up(r)]
        if len(live) < needed:
            raise UnavailableError(
                f"{len(live)}/{len(replicas)} replicas live, "
                f"read consistency {store.read_consistency!r} "
                f"needs {needed}"
            )
        if coordinator in live:
            chosen = ([coordinator]
                      + [r for r in live if r != coordinator])[:needed]
        else:
            chosen = live[:needed]
        acks = []
        for replica in chosen:
            if replica == coordinator:
                acks.append(sim.process(
                    _versioned_read(store, replica, key)))
            else:
                acks.append(sim.process(store.cluster.network.rpc(
                    coordinator_node, store.cluster.servers[replica],
                    request, response,
                    _versioned_read(store, replica, key),
                )))
        yield sim.k_of(acks, needed)
        best_row, best_version = None, -1
        for ack in acks:
            row, version = ack.value
            if version > best_version:
                best_row, best_version = row, version
        return best_row

    result = yield from store.cluster.network.rpc(
        session.client, coordinator_node, request, response,
        coordinate_read(),
    )
    return result


def cassandra_insert(session, key, row):
    store = session.store
    version = store.next_write_version()
    if store.replication_factor == 1:
        owner = store.owner_of(key)
        if not store.node_is_up(owner):
            raise UnavailableError(
                f"single replica of {key!r} is down (RF=1)"
            )
        result = yield from cassandra_route(
            session, owner, store._apply_write(owner, key, row, version),
            store.request_bytes(key, row),
            store.response_bytes(0),
        )
        return result
    result = yield from _cassandra_replicated_insert(
        session, key, row, version)
    return result


def _cassandra_replicated_insert(session, key, row, version=0):
    store = session.store
    sim = store.sim
    replicas = store.replicas_of(key, store.replication_factor)
    request = store.request_bytes(key, row)
    response = store.response_bytes(0)
    coordinator = session._next_coordinator()
    coordinator_node = store.cluster.servers[coordinator]
    if sim.tracer is not None and sim.context is not None:
        sim.tracer.annotate(coordinator=coordinator,
                            replicas=list(replicas))
    yield from store.client_cpu(session.client)

    def coordinate():
        yield from coordinator_node.cpu(store.COORDINATOR_CPU)
        live = [r for r in replicas if store.node_is_up(r)]
        needed = store.required_acks()
        if len(live) < needed:
            raise UnavailableError(
                f"{len(live)}/{len(replicas)} replicas live, "
                f"consistency {store.consistency_level!r} needs {needed}"
            )
        for replica in replicas:
            if replica not in live:
                store.queue_hint(replica, key, row, version)
        if store._fanout is not None:
            store._fanout.inc(len(live))
        acks = []
        for replica in live:
            if replica == coordinator:
                acks.append(sim.process(
                    store._apply_write(replica, key, row, version)))
            else:
                acks.append(sim.process(store.cluster.network.rpc(
                    coordinator_node, store.cluster.servers[replica],
                    request, response,
                    store._apply_write(replica, key, row, version),
                )))
        if sim.tracer is not None and sim.context is not None:
            span = sim.tracer.start_span(
                "replica_wait", "replica-wait",
                {"needed": needed, "live": len(live)})
            try:
                yield sim.k_of(acks, needed)
            finally:
                sim.tracer.end_span(span)
        else:
            yield sim.k_of(acks, needed)
        return True

    result = yield from store.cluster.network.rpc(
        session.client, coordinator_node, request, response,
        coordinate(),
    )
    return result


def cassandra_scan(session, start_key, count):
    store = session.store
    owner = store.live_replica_of(start_key)
    return cassandra_route(
        session, owner, store._apply_scan(owner, start_key, count),
        store.request_bytes(start_key), store.response_bytes(count),
    )


def cassandra_delete(session, key):
    store = session.store
    owner = store.live_replica_of(key)

    def handler():
        target = (store.owner_of(key)
                  if store.replication_factor == 1 else owner)
        store.note_node_op(target)
        node = store.cluster.servers[target]
        yield from node.cpu(store.profile.write_cpu)
        store.engines[target].delete(key)
        return True

    return cassandra_route(
        session, owner, handler(), store.request_bytes(key),
        store.response_bytes(0),
    )


# -- Voldemort -----------------------------------------------------------------


def voldemort_read(session, key):
    store = session.store
    if store.replication_factor > 1:
        result = yield from _voldemort_replicated_read(session, key)
        return result
    owner = store.owner_of(key)
    result = yield from session._call_server(
        owner, store._apply_read(owner, key),
        store.request_bytes(key), store.response_bytes(1), owner=owner,
    )
    return result


def _voldemort_replicated_read(session, key):
    store = session.store
    sim = store.sim
    replicas = store.replica_nodes_of(key)
    needed = store.required_reads
    live = [r for r in replicas if store.node_is_up(r)]
    if len(live) < needed:
        raise UnavailableError(
            f"{len(live)}/{len(replicas)} replicas of {key!r} live, "
            f"R={needed}")
    chosen = live[:needed]
    if sim.tracer is not None and sim.context is not None:
        sim.tracer.annotate(replicas=chosen, read_acks=needed)
    request = store.request_bytes(key)
    response = store.response_bytes(1)
    yield from store.client_cpu(session.client)
    acks = [sim.process(store.cluster.network.rpc(
        session.client, store.cluster.servers[replica],
        request, response,
        _versioned_read(store, replica, key),
    )) for replica in chosen]
    yield sim.k_of(acks, needed)
    best_row, best_version = None, -1
    for ack in acks:
        row, version = ack.value
        if version > best_version:
            best_row, best_version = row, version
    return best_row


def voldemort_insert(session, key, row):
    store = session.store
    version = store.next_write_version()
    if store.replication_factor > 1:
        result = yield from _voldemort_replicated_insert(
            session, key, row, version)
        return result
    owner = store.owner_of(key)
    result = yield from session._call_server(
        owner, store._apply_write(owner, key, row, version),
        store.request_bytes(key, row),
        store.response_bytes(0), owner=owner,
    )
    return result


def _voldemort_replicated_insert(session, key, row, version):
    store = session.store
    sim = store.sim
    replicas = store.replica_nodes_of(key)
    needed = store.required_writes
    live = [r for r in replicas if store.node_is_up(r)]
    if len(live) < needed:
        raise UnavailableError(
            f"{len(live)}/{len(replicas)} replicas of {key!r} live, "
            f"W={needed}")
    if sim.tracer is not None and sim.context is not None:
        sim.tracer.annotate(replicas=live, write_acks=needed)
    request = store.request_bytes(key, row)
    response = store.response_bytes(0)
    yield from store.client_cpu(session.client)
    acks = [sim.process(store.cluster.network.rpc(
        session.client, store.cluster.servers[replica],
        request, response,
        store._apply_write(replica, key, row, version),
    )) for replica in live]
    yield sim.k_of(acks, needed)
    return True


def voldemort_delete(session, key):
    store = session.store
    if store.replication_factor > 1:
        sim = store.sim
        replicas = store.replica_nodes_of(key)
        needed = store.required_writes
        live = [r for r in replicas if store.node_is_up(r)]
        if len(live) < needed:
            raise UnavailableError(
                f"{len(live)}/{len(replicas)} replicas of {key!r} "
                f"live, W={needed}")
        request = store.request_bytes(key)
        response = store.response_bytes(0)
        yield from store.client_cpu(session.client)
        acks = [sim.process(store.cluster.network.rpc(
            session.client, store.cluster.servers[replica],
            request, response,
            store._apply_delete(replica, key),
        )) for replica in live]
        yield sim.k_of(acks, needed)
        return True
    owner = store.owner_of(key)
    result = yield from session._call_server(
        owner, store._apply_delete(owner, key),
        store.request_bytes(key), store.response_bytes(0), owner=owner,
    )
    return result


#: store name -> op name -> the hand-written session method.
REFERENCE = {
    "cassandra": {"read": cassandra_read, "insert": cassandra_insert,
                  "scan": cassandra_scan, "delete": cassandra_delete},
    "voldemort": {"read": voldemort_read, "insert": voldemort_insert,
                  "delete": voldemort_delete},
}
