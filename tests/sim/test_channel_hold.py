"""Differential suite for the store-executor channel hold.

Four places hold a :class:`~repro.sim.resources.Resource` slot around
work that is more than a fixed duration: ``Resource.use`` inside a
sampled trace, Redis's event loop (``RedisStore._on_loop``), a VoltDB
site (``VoltDBStore._run_on_site``) and an HBase handler pool
(``HBaseStore._with_handler``).  All four do the same thing in the same
order — deadline check on entry, outer span, claim, a ``wait`` span only
if the claim queued, deadline re-check on grant (release and count the
request as expired), run the body, release, end the span — and two of
them count a node operation between the entry check and the span.

The hand-written bodies of those four sites, as they stood when each
store carried its own copy, live on here as *reference implementations*
(the method of ``tests/sim/test_join_in_place.py``).  Whatever the stores
call today must drive the kernel through the same event sequence and
leave the same :class:`~repro.sim.resources.ResourceStats`, node-op
counts, outcomes and span trees as the reference, in every way a hold
can end: uncontended, queued, refused by a bounded queue, expired before
enqueue, expired while queued, drained by a shutdown while queued, and
with the body raising — each inside and outside a sampled trace.
"""

import pytest

from repro.metrics import MetricsRegistry
from repro.sim.cluster import CLUSTER_M, Cluster
from repro.sim.faults import DeadlineExceededError, NodeDownError
from repro.sim.resources import Resource
from repro.stores.registry import create_store
from repro.trace import Tracer

from tests.sim.stepping import step_through

# -- reference implementations: the four hand-written holds --------------------


def _reference_use(resource, duration):
    """``Resource.use``'s span-emitting path, with the spans optional."""
    sim = resource.sim
    if sim.deadline_exceeded():
        resource.stats.expired += 1
        raise DeadlineExceededError(
            f"{resource.name}: deadline passed before enqueue")
    traced = sim.tracer is not None and sim.context is not None
    if traced:
        outer = sim.tracer.start_span(resource.name, resource.component)
    try:
        req = resource.request()
        if traced and not req.triggered:
            wait = sim.tracer.start_span("wait", "queue")
            try:
                yield req
            finally:
                sim.tracer.end_span(wait)
        else:
            yield req
        if sim.deadline_exceeded():
            resource.release(req)
            resource.stats.expired += 1
            raise DeadlineExceededError(
                f"{resource.name}: deadline passed while queued")
        try:
            yield sim.timeout(duration)
        finally:
            resource.release(req)
    finally:
        if traced:
            sim.tracer.end_span(outer)


def _reference_on_loop(store, shard_index, cpu_seconds, action=None):
    """``RedisStore._on_loop`` as each store carried it."""
    node = store.cluster.servers[shard_index]
    loop = store.event_loops[shard_index]
    sim = store.sim
    if sim.deadline_exceeded():
        loop.stats.expired += 1
        raise DeadlineExceededError(
            f"{loop.name}: deadline passed before enqueue")
    store.note_node_op(shard_index)
    traced = sim.tracer is not None and sim.context is not None
    if traced:
        span = sim.tracer.start_span(loop.name, "cpu",
                                     {"shard": shard_index})
    try:
        request = loop.request()
        if traced and not request.triggered:
            wait = sim.tracer.start_span("wait", "queue")
            try:
                yield request
            finally:
                sim.tracer.end_span(wait)
        else:
            yield request
        if sim.deadline_exceeded():
            loop.release(request)
            loop.stats.expired += 1
            raise DeadlineExceededError(
                f"{loop.name}: deadline passed while queued")
        try:
            yield sim.timeout(cpu_seconds / (node.spec.core_speed
                                             * node.speed_factor))
            return action() if action is not None else None
        finally:
            loop.release(request)
    finally:
        if traced:
            sim.tracer.end_span(span)


def _reference_run_on_site(store, partition, cpu_seconds, action):
    """``VoltDBStore._run_on_site`` as each store carried it."""
    owner = store.node_of_partition(partition)
    node = store.cluster.servers[owner]
    if not node.up:
        raise NodeDownError(
            f"partition {partition} unavailable: host {node.name} is down",
            node=node.name,
        )
    site = store.sites[partition]
    sim = store.sim
    if sim.deadline_exceeded():
        site.stats.expired += 1
        raise DeadlineExceededError(
            f"{site.name}: deadline passed before enqueue")
    store.note_node_op(owner)
    traced = sim.tracer is not None and sim.context is not None
    if traced:
        span = sim.tracer.start_span(site.name, "cpu",
                                     {"partition": partition})
    try:
        request = site.request()
        if traced and not request.triggered:
            wait = sim.tracer.start_span("wait", "queue")
            try:
                yield request
            finally:
                sim.tracer.end_span(wait)
        else:
            yield request
        if sim.deadline_exceeded():
            site.release(request)
            site.stats.expired += 1
            raise DeadlineExceededError(
                f"{site.name}: deadline passed while queued")
        try:
            yield sim.timeout(cpu_seconds / (node.spec.core_speed
                                             * node.speed_factor))
            return action()
        finally:
            site.release(request)
    finally:
        if traced:
            sim.tracer.end_span(span)


def _reference_with_handler(store, server, body):
    """``HBaseStore._with_handler`` as each store carried it."""
    sim = store.sim
    handlers = server.handlers
    if sim.deadline_exceeded():
        handlers.stats.expired += 1
        raise DeadlineExceededError(
            f"{handlers.name}: deadline passed before enqueue")
    traced = sim.tracer is not None and sim.context is not None
    if traced:
        span = sim.tracer.start_span(
            f"handler:{server.node.name}", "store",
            {"handlers": handlers.capacity})
    try:
        request = handlers.request()
        if traced and not request.triggered:
            wait = sim.tracer.start_span("wait", "queue")
            try:
                yield request
            finally:
                sim.tracer.end_span(wait)
        else:
            yield request
        if sim.deadline_exceeded():
            handlers.release(request)
            handlers.stats.expired += 1
            raise DeadlineExceededError(
                f"{handlers.name}: deadline passed while queued")
        try:
            result = yield from body
            return result
        finally:
            handlers.release(request)
    finally:
        if traced:
            sim.tracer.end_span(span)


# -- one deployment per hold site ----------------------------------------------

#: Reference CPU seconds of the work done under the slot.
WORK_S = 1e-3


class _Boom(Exception):
    """What a failing body raises."""


def _outcome(tag, fail):
    if fail:
        raise _Boom(f"{tag} failed under the slot")
    return f"{tag} done"


class _Site:
    """A channel and the two ways to hold it: the program's, the
    reference's.  ``hold(reference, tag, fail)`` returns the generator."""

    def __init__(self):
        self.cluster = Cluster(CLUSTER_M, 2)
        self.sim = self.cluster.sim
        self.store = None

    def node_ops(self):
        if self.store is None:
            return []
        return [counter.value for counter in self.store._node_ops]

    def _deploy(self, name):
        self.store = create_store(name, self.cluster)
        self.store.attach_metrics(MetricsRegistry(self.sim))
        return self.store


class _UseSite(_Site):
    def __init__(self):
        super().__init__()
        self.channel = Resource(self.sim, 2, "station", component="disk")

    def hold(self, reference, tag, fail):
        assert not fail, "a fixed-duration hold has no body to raise"
        if reference:
            return _reference_use(self.channel, WORK_S)
        return self.channel.use(WORK_S)


class _RedisSite(_Site):
    def __init__(self):
        super().__init__()
        self.channel = self._deploy("redis").event_loops[1]

    def hold(self, reference, tag, fail):
        args = (1, WORK_S, lambda: _outcome(tag, fail))
        if reference:
            return _reference_on_loop(self.store, *args)
        return self.store._on_loop(*args)


class _VoltDBSite(_Site):
    def __init__(self):
        super().__init__()
        store = self._deploy("voltdb")
        self.partition = store._pids[-1]  # a site of the second host
        self.channel = store.sites[self.partition]

    def hold(self, reference, tag, fail):
        args = (self.partition, WORK_S, lambda: _outcome(tag, fail))
        if reference:
            return _reference_run_on_site(self.store, *args)
        return self.store._run_on_site(*args)


class _HBaseSite(_Site):
    def __init__(self):
        super().__init__()
        self.server = self._deploy("hbase").region_servers[1]
        self.channel = self.server.handlers

    def hold(self, reference, tag, fail):
        store, server = self.store, self.server

        def body():
            store.note_node_op(server.index)
            yield from server.node.cpu(WORK_S)
            return _outcome(tag, fail)
        if reference:
            return _reference_with_handler(store, server, body())
        return store._with_handler(server, body())


SITES = {"use": _UseSite, "redis": _RedisSite, "voltdb": _VoltDBSite,
         "hbase": _HBaseSite}


# -- the ways a hold can end ---------------------------------------------------
#
# A scenario is a list of clients ``(tag, start, deadline, fail)`` —
# ``start`` and ``deadline`` in units of one uncontended hold, the
# deadline relative to the start, ``None`` for none — plus an optional
# queue bound and an optional fault ``(instant, "channel" | "host")``:
# the channel is shut down, or the server it belongs to crashes (which
# leaves the channel itself up).


def _fill(capacity):
    return [(f"holder{i}", 0.0, None, False) for i in range(capacity)]


def _uncontended(capacity):
    return [("only", 0.0, None, False)], None, None


def _queued(capacity):
    clients = _fill(capacity) + [("second", 0.0, None, False),
                                 ("third", 0.25, None, False)]
    return clients, None, None


def _rejected(capacity):
    clients = _fill(capacity) + [("queued", 0.0, None, False),
                                 ("refused", 0.0, None, False),
                                 ("refused-later", 0.5, None, False)]
    return clients, 1, None


def _rejected_at_zero(capacity):
    clients = _fill(capacity) + [("refused", 0.0, None, False)]
    return clients, 0, None


def _expired_before_enqueue(capacity):
    return [("late", 0.5, 0.0, False), ("fine", 0.5, None, False)], None, None


def _expired_while_queued(capacity):
    clients = _fill(capacity) + [("impatient", 0.1, 0.5, False),
                                 ("patient", 0.2, 5.0, False)]
    return clients, None, None


def _drained_while_queued(capacity):
    clients = _fill(capacity) + [("queued", 0.1, None, False),
                                 ("queued-too", 0.2, None, False),
                                 ("after-the-crash", 0.6, None, False)]
    return clients, None, (0.5, "channel")


def _host_dead(capacity):
    """VoltDB refuses a fragment for a dead host before it reads the
    deadline; the other channels do not look at the host at all."""
    return ([("late", 0.5, 0.0, False), ("fine", 0.5, None, False)], None,
            (0.25, "host"))


def _body_raises(capacity):
    clients = ([("failing", 0.0, None, True)]
               + _fill(capacity - 1)
               + [("next", 0.1, None, False)])
    return clients, None, None


SCENARIOS = {
    "uncontended": _uncontended,
    "queued": _queued,
    "rejected": _rejected,
    "rejected-at-zero": _rejected_at_zero,
    "expired-before-enqueue": _expired_before_enqueue,
    "expired-while-queued": _expired_while_queued,
    "drained-while-queued": _drained_while_queued,
    "host-dead": _host_dead,
    "body-raises": _body_raises,
}


def _span_tree(span):
    return (span.name, span.component, span.start, span.end, span.meta,
            [_span_tree(child) for child in span.children])


def _observe(site_name, scenario, traced, reference):
    """Everything one scenario leaves behind, driven event by event."""
    site = SITES[site_name]()
    sim, channel = site.sim, site.channel
    clients, max_queue, fault = SCENARIOS[scenario](channel.capacity)
    channel.max_queue = max_queue
    tracer = Tracer(sim) if traced else None
    unit = WORK_S / CLUSTER_M.node.core_speed
    outcomes = []

    def client(tag, start, deadline, fail):
        yield sim.timeout(start * unit)
        trace = tracer.begin("hold", tag, 0) if traced else None
        if deadline is not None:
            sim.deadline = sim.now + deadline * unit
        try:
            result = yield from site.hold(reference, tag, fail)
            outcomes.append((tag, sim.now, "ok", result))
        except Exception as exc:  # every way out is an observation
            outcomes.append((tag, sim.now, type(exc).__name__, str(exc)))
        if traced:
            tracer.complete(trace)

    def inject(at, what):
        yield sim.timeout(at * unit)
        if what == "channel":
            channel.shut_down()
        else:
            site.cluster.servers[1].fail()

    for spec in clients:
        sim.process(client(*spec), name=spec[0])
    if fault is not None:
        sim.process(inject(*fault), name="fault")

    events = step_through(sim)

    stats = channel.stats
    return {
        "events": events,
        "sequence": sim._sequence,
        "end": sim.now,
        "outcomes": outcomes,
        "stats": (stats.requests, stats.rejected, stats.expired,
                  stats.total_wait_time, stats.total_service_time,
                  stats.busy_time, stats.peak_queue_length,
                  channel.in_use, channel.queue_length),
        "node_ops": site.node_ops(),
        "spans": {trace.key: _span_tree(trace.root)
                  for trace in tracer.traces} if traced else None,
    }


#: ``Resource.use`` holds for a duration: there is no body to raise.
CASES = [(site, scenario) for site in sorted(SITES)
         for scenario in sorted(SCENARIOS)
         if (site, scenario) != ("use", "body-raises")]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("site,scenario", CASES)
def test_hold_matches_its_hand_written_reference(site, scenario, traced):
    real = _observe(site, scenario, traced, reference=False)
    want = _observe(site, scenario, traced, reference=True)
    for index, (got, expected) in enumerate(zip(real["events"],
                                                want["events"])):
        assert got == expected, (
            f"first divergence at kernel event {index}: "
            f"real={got!r} reference={expected!r}")
    assert real == want


# -- the scenarios are what they say they are ----------------------------------


def _kinds(observed):
    return {tag: kind for tag, __, kind, __ in observed["outcomes"]}


@pytest.mark.parametrize("site", sorted(SITES))
def test_scenarios_end_the_way_they_are_named(site):
    """A differential suite whose scenarios all succeed compares nothing."""
    def run(scenario, traced=True):
        return _observe(site, scenario, traced, reference=False)

    queued = run("queued")
    assert set(_kinds(queued).values()) == {"ok"}
    assert queued["stats"][3] > 0  # somebody waited
    waited = sorted(tag for tag, tree in queued["spans"].items()
                    for hold in tree[5] for child in hold[5]
                    if child[:2] == ("wait", "queue"))
    assert waited == ["second", "third"]  # only the two that queued

    rejected = run("rejected")
    assert _kinds(rejected)["refused"] == "OverloadError"
    assert _kinds(rejected)["refused-later"] == "OverloadError"
    assert _kinds(rejected)["queued"] == "ok"
    assert rejected["stats"][1] == 2
    assert _kinds(run("rejected-at-zero"))["refused"] == "OverloadError"

    early = run("expired-before-enqueue")
    assert _kinds(early) == {"late": "DeadlineExceededError", "fine": "ok"}
    assert early["stats"][0] == 1 and early["stats"][2] == 1
    # An op that expired on entry opened no span and is not a node op.
    assert early["spans"]["late"][5] == []
    assert len(early["spans"]["fine"][5]) == 1
    if site != "use":
        assert sum(early["node_ops"]) == 1

    expired = run("expired-while-queued")
    assert _kinds(expired)["impatient"] == "DeadlineExceededError"
    assert _kinds(expired)["patient"] == "ok"
    assert expired["stats"][2] == 1
    assert "while queued" in next(
        text for tag, __, __, text in expired["outcomes"]
        if tag == "impatient")

    drained = run("drained-while-queued")
    assert _kinds(drained)["queued"] == "ResourceDrainedError"
    assert _kinds(drained)["queued-too"] == "ResourceDrainedError"
    assert _kinds(drained)["after-the-crash"] == "ResourceDrainedError"
    assert _kinds(drained)["holder0"] == "ok"

    dead = run("host-dead")
    if site == "voltdb":
        assert set(_kinds(dead).values()) == {"NodeDownError"}
        assert dead["stats"][:3] == (0, 0, 0) and sum(dead["node_ops"]) == 0
    else:
        assert _kinds(dead)["late"] == "DeadlineExceededError"

    ended = [queued, rejected, early, expired, drained, dead]
    if site != "use":
        raised = run("body-raises")
        assert _kinds(raised)["failing"] == "_Boom"
        assert _kinds(raised)["next"] == "ok"
        ended.append(raised)
    for observed in ended:
        assert observed["stats"][7:] == (0, 0)  # every slot came back
