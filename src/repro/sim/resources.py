"""Queueing resources for the simulation kernel.

A :class:`Resource` models a server station with a fixed number of slots
(CPU cores, disk queue, NIC, connection pool).  Processes ``yield
resource.request()`` to obtain a slot and must call ``resource.release(req)``
when done.  Utilisation and queueing statistics are tracked so benchmarks
can report on saturation, which is what the paper's "maximum sustainable
throughput" methodology probes.

Past saturation two overload mechanisms bound behaviour:

* ``max_queue`` turns the unbounded FIFO into a bounded one — a request
  arriving at a full queue is rejected deterministically with
  :class:`~repro.sim.faults.OverloadError` (counted in
  :attr:`ResourceStats.rejected`).
* :meth:`use` and :meth:`hold` consult the kernel's per-request
  deadline slot on entry and again when the slot is granted, abandoning
  work whose deadline has already passed
  (:attr:`ResourceStats.expired`) instead of holding the station for a
  dead request.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappush
from typing import Optional

from repro.sim.faults import (DeadlineExceededError, OverloadError,
                              ResourceDrainedError)
from repro.sim.kernel import Event, SimulationError, Simulator

__all__ = ["Request", "Resource", "ResourceStats"]


@dataclass(slots=True)
class ResourceStats:
    """Aggregate occupancy statistics for a :class:`Resource`."""

    requests: int = 0
    total_wait_time: float = 0.0
    total_service_time: float = 0.0
    busy_time: float = 0.0
    peak_queue_length: int = 0
    #: Requests refused because the bounded queue was full.
    rejected: int = 0
    #: Holds abandoned because the request's deadline had passed.
    expired: int = 0
    #: Restart counter: bumps when a crashed station is restored.
    generation: int = 0
    #: ``peak_queue_length`` of each completed generation (pre-crash peaks
    #: are archived here on restore so post-recovery saturation analysis
    #: is not polluted by them).
    generation_peaks: list[int] = field(default_factory=list)
    _last_change: float = 0.0
    _area_in_use: float = field(default=0.0, repr=False)

    @property
    def mean_wait_time(self) -> float:
        """Average time a request spent queued before being granted."""
        return self.total_wait_time / self.requests if self.requests else 0.0

    def mean_in_use(self, now: float) -> float:
        """Time-averaged number of busy slots up to ``now``."""
        return self._area_in_use / now if now > 0 else 0.0

    def roll_generation(self) -> None:
        """Archive the live queue peak and start a fresh generation."""
        self.generation_peaks.append(self.peak_queue_length)
        self.peak_queue_length = 0
        self.generation += 1


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "requested_at", "granted_at")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource
        self.requested_at = resource.sim._now
        self.granted_at: Optional[float] = None


class Resource:
    """A FIFO multi-server resource."""

    def __init__(self, sim: Simulator, capacity: int = 1,
                 name: str = "resource", component: str = "resource",
                 max_queue: Optional[int] = None):
        if capacity < 1:
            raise SimulationError(
                f"resource capacity must be >= 1, got {capacity}")
        if max_queue is not None and max_queue < 0:
            raise SimulationError(
                f"max_queue must be >= 0, got {max_queue}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        #: Attribution bucket for traced holds (see ``repro.trace``).
        self.component = component
        #: Queue bound; ``None`` means unbounded.  Mutable so
        #: ``Store.configure_overload`` can arm it post-construction.
        self.max_queue = max_queue
        self.stats = ResourceStats()
        self._in_use = 0
        self._queue: deque[Request] = deque()
        self._down = False
        #: Recycled :class:`Request` objects for :meth:`use`'s fast path.
        #: Only requests whose whole lifecycle stayed inside ``use`` are
        #: pooled — requests handed out by :meth:`request` belong to the
        #: caller and are never recycled.
        self._req_pool: list[Request] = []

    @property
    def down(self) -> bool:
        """Whether the resource's node has crashed (requests fail fast)."""
        return self._down

    @property
    def in_use(self) -> int:
        """Number of currently occupied slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def busy_seconds(self) -> float:
        """Cumulative time at least one slot was busy, current to now.

        Flushes the time-integral accounting first, so pull-based metrics
        probes read an exact value mid-run rather than one that is stale
        since the last grant/release.
        """
        self._account()
        return self.stats.busy_time

    def slot_seconds(self) -> float:
        """Cumulative busy-slot-seconds (the ``in_use`` time integral).

        Dividing a delta of this by ``elapsed * capacity`` yields the mean
        multi-slot utilisation over that span — the CPU-utilisation figure
        the saturation analyzer reports.
        """
        self._account()
        return self.stats._area_in_use

    def _account(self) -> None:
        now = self.sim._now
        stats = self.stats
        elapsed = now - stats._last_change
        if elapsed > 0:
            in_use = self._in_use
            stats._area_in_use += elapsed * in_use
            if in_use > 0:
                stats.busy_time += elapsed
            stats._last_change = now

    def request(self) -> Request:
        """Claim a slot; the returned event fires when the slot is granted.

        On a crashed node the claim fails immediately with
        :class:`ResourceDrainedError` — the station no longer serves.
        With a bounded queue (``max_queue``), a claim arriving at a full
        queue fails with :class:`OverloadError` instead of growing it.
        """
        return self._admit(Request(self))

    def _admit(self, req: Request) -> Request:
        """Run the grant/queue/reject decision for a fresh request."""
        self.stats.requests += 1
        if self._down:
            req.fail(ResourceDrainedError(f"{self.name} is down"))
        elif self._in_use < self.capacity:
            self._grant(req)
        elif (self.max_queue is not None
                and len(self._queue) >= self.max_queue):
            self.stats.rejected += 1
            req.fail(OverloadError(
                f"{self.name} queue full "
                f"({len(self._queue)} >= {self.max_queue})"))
        else:
            self._queue.append(req)
            if len(self._queue) > self.stats.peak_queue_length:
                self.stats.peak_queue_length = len(self._queue)
        return req

    def _recycle_request(self, req: Request) -> None:
        """Return a ``use``-private request to the pool once it is inert."""
        if req._processed and not req._cancelled \
                and req._waiter is None and req._callbacks is None \
                and len(self._req_pool) < 64:
            self._req_pool.append(req)

    def _grant(self, req: Request) -> None:
        self._account()
        self._in_use += 1
        now = self.sim._now
        req.granted_at = now
        self.stats.total_wait_time += now - req.requested_at
        req.succeed(req)

    def release(self, req: Request) -> None:
        """Return a previously granted slot to the pool.

        Release-then-grant is the saturated hot path, so the occupancy
        accounting and the handoff grant run inline: one accounting
        flush covers both (the grant happens at the same instant, where
        ``_account`` would see zero elapsed time and do nothing).
        """
        if req.granted_at is None:
            raise SimulationError(
                "cannot release a request that was never granted")
        sim = self.sim
        now = sim._now
        stats = self.stats
        in_use = self._in_use
        elapsed = now - stats._last_change
        if elapsed > 0:
            stats._area_in_use += elapsed * in_use
            if in_use > 0:
                stats.busy_time += elapsed
            stats._last_change = now
        stats.total_service_time += now - req.granted_at
        in_use -= 1
        queue = self._queue
        if queue and in_use < self.capacity:
            # Hand the slot straight to the queue head.  The ``succeed``
            # guards stay: a queued request obtained via ``request()``
            # may have been cancelled or triggered by external code, and
            # that must keep failing loudly exactly as before.
            nxt = queue.popleft()
            self._in_use = in_use + 1
            nxt.granted_at = now
            stats.total_wait_time += now - nxt.requested_at
            if nxt._triggered:
                raise SimulationError("event already triggered")
            if nxt._cancelled:
                raise SimulationError("event was cancelled")
            nxt._ok = True
            nxt._value = nxt
            nxt._triggered = True
            seq = sim._sequence + 1
            sim._sequence = seq
            nxt._qseq = seq
            sim._push_now(nxt)
        else:
            self._in_use = in_use

    def shut_down(self) -> None:
        """Crash the station: fail every queued grant, refuse new ones.

        Requests already *granted* keep their slot — the holder finishes
        its (now meaningless) service and releases; whatever it does next
        on the dead node fails.  Queued requests are drained by failing
        their events, which throws :class:`ResourceDrainedError` into the
        waiting processes.
        """
        if self._down:
            return
        self._down = True
        drained, self._queue = self._queue, deque()
        for req in drained:
            req.fail(ResourceDrainedError(f"{self.name} went down"))

    def restore(self) -> None:
        """Bring a crashed station back into service (node restart).

        Queue statistics roll over to a fresh generation: the pre-crash
        ``peak_queue_length`` is archived in
        :attr:`ResourceStats.generation_peaks` so saturation analysis of
        the recovered station starts from a clean peak.
        """
        if not self._down:
            return
        self._down = False
        self.stats.roll_generation()

    def use(self, duration: float):
        """Acquire a slot, hold it for ``duration``, release it.

        A serial hold is delegated to from the calling process::

            yield from resource.use(0.001)

        Spawn it (``sim.process(resource.use(...))``) only to overlap
        the hold with other work — a process that is joined on the spot
        buys no concurrency and costs two kernel events.

        Inside a sampled trace this is a :meth:`hold` around a timer
        (a span with a ``wait`` child); untraced holds take the
        span-free fast path, which checks the request deadline at the
        same two points — on entry and on grant — so a dead request
        cannot burn station time.
        """
        sim = self.sim
        deadline = sim.deadline
        if deadline is not None and sim._now >= deadline:
            self.stats.expired += 1
            raise DeadlineExceededError(
                f"{self.name}: deadline passed before enqueue")
        tracer = sim.tracer
        if tracer is None or sim.context is None:
            # Fused fast path: no spans to emit, so the grant-and-hold
            # runs on pooled Request/Timeout objects (recycled only once
            # inert — fired, consumed, and unreferenced) and the
            # deadline re-check is skipped entirely for the deadline-free
            # majority.  The claim, the uncontended grant, and the
            # recycle guards run inline in this frame — each helper call
            # removed here is 50K+ frames per benchmark run.  The event
            # *stream* is identical to the slow path: same grant event,
            # same timeout, same sequence slots.
            now = sim._now
            pool = self._req_pool
            if pool:
                req = pool.pop()
                # Partial reset: the recycle guard below proved the
                # request inert (processed, uncancelled, unsubscribed),
                # and the grant or failure rewrites ``_ok``/``_value``;
                # ``_triggered`` must clear so the grant's guard passes.
                req._triggered = False
                req._processed = False
                req.requested_at = now
                req.granted_at = None
            else:
                req = Request(self)
            stats = self.stats
            stats.requests += 1
            in_use = self._in_use
            if in_use < self.capacity and not self._down:
                # Inlined uncontended grant (accounting + guard-free
                # succeed); the wait contribution is exactly 0.0, so
                # skipping the add leaves ``total_wait_time``
                # bit-identical.
                elapsed = now - stats._last_change
                if elapsed > 0:
                    stats._area_in_use += elapsed * in_use
                    if in_use > 0:
                        stats.busy_time += elapsed
                    stats._last_change = now
                self._in_use = in_use + 1
                req.granted_at = now
                req._value = req
                req._triggered = True
                seq = sim._sequence + 1
                sim._sequence = seq
                req._qseq = seq
                sim._push_now(req)
            elif self._down:
                req.fail(ResourceDrainedError(f"{self.name} is down"))
            else:
                # Inlined contended admit (the saturated majority at a
                # busy station): bounded-queue reject or FIFO enqueue,
                # mirroring :meth:`_admit` decision for decision.
                queue = self._queue
                maxq = self.max_queue
                if maxq is not None and len(queue) >= maxq:
                    stats.rejected += 1
                    req.fail(OverloadError(
                        f"{self.name} queue full "
                        f"({len(queue)} >= {maxq})"))
                else:
                    queue.append(req)
                    if len(queue) > stats.peak_queue_length:
                        stats.peak_queue_length = len(queue)
            yield req
            if deadline is not None and sim._now >= deadline:
                self.release(req)
                stats.expired += 1
                self._recycle_request(req)
                raise DeadlineExceededError(
                    f"{self.name}: deadline passed while queued")
            # Inlined sim._timeout_pooled(duration) — the hold timer.
            # An empty pool falls through to the virtual call, which is
            # also what keeps the tests' ReferenceScheduler
            # (tests/sim/reference_scheduler.py) correct: its pool
            # stand-in is permanently empty, so the oracle always takes
            # its own rerouted ``_timeout_pooled``.
            tpool = sim._timeout_pool
            if tpool:
                if duration < 0:
                    raise SimulationError(
                        f"negative timeout delay: {duration!r}")
                timeout = tpool.pop()
                timeout._processed = False
                timeout.delay = duration
                seq = sim._sequence + 1
                sim._sequence = seq
                timeout._qseq = seq
                if duration == 0.0:
                    sim._push_now(timeout)
                else:
                    when = sim._now + duration
                    far = sim._far
                    bucket = far.get(when)
                    if bucket is None:
                        far[when] = timeout
                        heappush(sim._heap, when)
                    elif bucket.__class__ is list:
                        bucket.append(timeout)
                    else:
                        far[when] = [bucket, timeout]
            else:
                timeout = sim._timeout_pooled(duration)
            try:
                yield timeout
            finally:
                self.release(req)
            # Inlined _recycle_timeout / _recycle_request guards.
            if timeout._processed and not timeout._cancelled \
                    and timeout._waiter is None \
                    and timeout._callbacks is None \
                    and len(sim._timeout_pool) < 64:
                sim._timeout_pool.append(timeout)
            if req._processed and not req._cancelled \
                    and req._waiter is None and req._callbacks is None \
                    and len(pool) < 64:
                pool.append(req)
            return
        yield from self.hold(self._hold_timer(duration))

    def _hold_timer(self, duration: float):
        yield self.sim.timeout(duration)

    def hold(self, body, name: Optional[str] = None,
             attrs: Optional[dict] = None, entered=None):
        """Hold one slot while the generator ``body`` runs; its result.

        The one channel hold: :meth:`use` inside a sampled trace and
        every store-executor channel (Redis event loops, VoltDB sites,
        HBase handler pools) delegate to it.  In order:

        1. the request deadline (``sim.deadline``) is checked — an
           expired request counts in :attr:`ResourceStats.expired` and
           raises :class:`DeadlineExceededError`;
        2. ``entered()`` runs: the caller's slot for counting admitted
           work, placed here so that an op that expired on entry is not
           counted and opens no span, while one the bounded queue then
           refuses is counted;
        3. inside a sampled trace a span opens (``name``, default the
           resource's, under :attr:`component`, tagged ``attrs``);
        4. the slot is claimed, under a ``wait`` child span only if the
           claim queued;
        5. the deadline is checked again: an expired request gives the
           slot straight back;
        6. ``body`` runs; the slot is released and the span closed
           however it ends.
        """
        sim = self.sim
        if sim.deadline_exceeded():
            self.stats.expired += 1
            raise DeadlineExceededError(
                f"{self.name}: deadline passed before enqueue")
        if entered is not None:
            entered()
        tracer = sim.tracer if sim.context is not None else None
        if tracer is not None:
            outer = tracer.start_span(name or self.name, self.component,
                                      attrs)
        try:
            req = self.request()
            if tracer is not None and not req.triggered:
                wait = tracer.start_span("wait", "queue")
                try:
                    yield req
                finally:
                    tracer.end_span(wait)
            else:
                yield req
            if sim.deadline_exceeded():
                self.release(req)
                self.stats.expired += 1
                raise DeadlineExceededError(
                    f"{self.name}: deadline passed while queued")
            try:
                result = yield from body
                return result
            finally:
                self.release(req)
        finally:
            if tracer is not None:
                tracer.end_span(outer)
