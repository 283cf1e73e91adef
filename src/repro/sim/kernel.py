"""Discrete-event simulation kernel.

A small, deterministic, generator-based event engine in the style of SimPy.
The kernel is the foundation of the cluster substrate that replaces the
paper's physical test beds: every store operation is a :class:`Process`
that yields :class:`Event` objects (timeouts, resource grants, sub-process
completions) and accumulates simulated time.

Design notes
------------
* Events fire in ``(time, sequence)`` order: among simultaneous events the
  one *scheduled first* fires first.  This is the kernel's only ordering
  contract — nothing may rely on any finer tie-breaking.
* The default scheduler is a two-lane calendar queue tuned for the
  mostly-FIFO arrival pattern of a queueing simulation: events scheduled
  with zero delay (grants, process completions, resume bounces — the
  majority) land on an O(1) FIFO *now lane*, and only genuinely timed
  events pay for the binary-heap *far lane* (a heap of bare timestamps
  plus a dict of per-instant buckets).  Two invariants make the lanes
  merge-free: every far-lane time is strictly greater than ``now`` (a
  timed delay is positive by definition), and every event in a bucket
  was scheduled before anything scheduled while the bucket fires (the
  global sequence counter is monotone).  So advancing the clock splices
  a *whole bucket* onto the empty now lane with zero per-event
  comparisons, and the resulting order is exactly the classic heap's
  ``(time, sequence)`` order.  The original single-heap implementation
  is kept beside the tests as the differential-testing oracle
  (``ReferenceScheduler`` in ``tests/sim/reference_scheduler.py``).
* One drive loop, :meth:`Simulator.run`, serves all three ways a run
  stops: at a stop event, at quiescence (against a fresh event that
  never fires) and at a time horizon (tested only when the clock
  advances).  The pop and the dispatch live in that loop alone.
* A :class:`Process` is itself an :class:`Event` that succeeds with the
  generator's return value, which lets processes wait on each other and
  lets :class:`AllOf` / :class:`KOf` compose fan-out RPCs.
* Process bootstraps and resume bounces do not allocate helper events:
  the process schedules *itself* as a resume entry carrying the pending
  ``(ok, value)`` pair.  Each entry still consumes one sequence number at
  exactly the point the old kernel's helper event did, so the event
  stream is bit-for-bit identical — just allocation-free.
* Failures propagate: if a yielded event fails, the exception is thrown
  into the waiting generator; unhandled failures surface from
  :meth:`Simulator.run` as :class:`SimulationError`.
* The simulator carries an opaque ``context`` slot (used by
  ``repro.trace`` for span propagation).  Each :class:`Process` inherits
  the context active at spawn time and swaps it in around every resume,
  so logically-concurrent processes each see their own context exactly
  like thread-locals under a real scheduler.
* A second per-process slot, ``deadline``, carries the active request's
  absolute deadline through the same inherit-and-swap mechanism.  The
  resource/network layers consult :meth:`Simulator.deadline_exceeded` to
  abandon work whose deadline already passed; :meth:`Simulator.detached`
  spawns background server work (flushes, compactions, hint replay) with
  the deadline cleared so it outlives the request that triggered it.
* :meth:`Event.cancel` removes a scheduled event lazily: the queue entry
  stays put but is skipped when popped, so timeout guards that lost a
  race no longer burn a callback dispatch when they expire.
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import partial
from math import inf
from types import GeneratorType
from typing import Any, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "KOf",
    "Simulator",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised when the simulation itself is used incorrectly."""


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, is *triggered* once :meth:`succeed` or
    :meth:`fail` is called, and then notifies its callbacks exactly once
    when the simulator processes it.

    Internally a single waiting :class:`Process` is held in the
    ``_waiter`` slot (the overwhelmingly common case) and only additional
    subscribers allocate the ``callbacks`` list; notification order is
    registration order either way, matching the original list-only
    implementation.
    """

    __slots__ = ("sim", "_callbacks", "_waiter", "_value", "_ok",
                 "_triggered", "_processed", "_cancelled", "_qseq")

    PENDING = object()

    #: Class-level default so the run loop can dispatch on one flag for
    #: every queued object: only a :class:`Process` ever shadows this
    #: with a per-instance slot (``True`` while it sits in the queue as
    #: a resume entry).
    _resuming = False

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._callbacks: Optional[list] = None
        self._waiter: Optional["Process"] = None
        self._value: Any = Event.PENDING
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        self._cancelled = False
        self._qseq = 0

    @property
    def callbacks(self) -> list:
        """Callables run (in registration order) when the event fires.

        A process already waiting via the internal single-waiter slot
        keeps its position: it is notified before anything appended here
        afterwards, exactly as if it had been first in this list.
        """
        cbs = self._callbacks
        if cbs is None:
            cbs = self._callbacks = []
        return cbs

    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether callbacks have already run."""
        return self._processed

    @property
    def cancelled(self) -> bool:
        """Whether the event was cancelled before being processed."""
        return self._cancelled

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception when it failed)."""
        if self._value is Event.PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if self._cancelled:
            raise SimulationError("event was cancelled")
        self._ok = True
        self._value = value
        self._triggered = True
        # Zero-delay schedule: the next sequence number, then the now
        # lane.  This is the hottest trigger path, and the now lane
        # honours the scheduler's ordering contract by construction.
        sim = self.sim
        seq = sim._sequence + 1
        sim._sequence = seq
        self._qseq = seq
        sim._push_now(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if self._cancelled:
            raise SimulationError("event was cancelled")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._triggered = True
        sim = self.sim
        seq = sim._sequence + 1
        sim._sequence = seq
        self._qseq = seq
        sim._push_now(self)
        return self

    def cancel(self) -> "Event":
        """Cancel the event: it will never fire its callbacks.

        Pending events can no longer be triggered; triggered-but-unfired
        events are skipped when their queue entry is popped (lazy
        deletion — the entry is not searched for).  Cancelling an event
        that already ran its callbacks is an error, and cancelling twice
        is a no-op.  A process must never cancel the event it is itself
        waiting on (it would sleep forever).
        """
        if self._processed:
            raise SimulationError("cannot cancel a processed event")
        self._cancelled = True
        return self


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        self.sim = sim
        self._callbacks = None
        self._waiter = None
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self._cancelled = False
        self.delay = delay
        # Schedule: the next sequence number, then the now lane for a
        # zero delay or the far-lane bucket at ``now + delay``.
        seq = sim._sequence + 1
        sim._sequence = seq
        self._qseq = seq
        if delay == 0.0:
            sim._push_now(self)
        else:
            when = sim._now + delay
            far = sim._far
            bucket = far.get(when)
            if bucket is None:
                far[when] = self
                heapq.heappush(sim._heap, when)
            elif bucket.__class__ is list:
                bucket.append(self)
            else:
                far[when] = [bucket, self]


class Process(Event):
    """A running simulation actor wrapping a generator.

    The generator yields :class:`Event` instances.  When a yielded event
    fires, the process resumes with the event's value (or the exception is
    thrown into the generator if the event failed).  The process — being an
    event itself — succeeds with the generator's return value.

    A process lives in the scheduler queue in one of two roles, told
    apart by ``_resuming``: as a *resume entry* (its generator should be
    advanced with the buffered ``(ok, value)``) or, once the generator
    finishes, as an ordinary triggered event notifying its waiters.  The
    roles never overlap: while a resume is queued the generator is
    suspended, so the process cannot also have completed.
    """

    __slots__ = ("generator", "_send", "_name", "context", "deadline",
                 "_resuming", "_r_ok", "_r_value")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ):
        if type(generator) is not GeneratorType \
                and not hasattr(generator, "send"):
            raise SimulationError(
                f"process target must be a generator, got {type(generator).__name__}"
            )
        self.sim = sim
        self._callbacks = None
        self._waiter = None
        self._value = Event.PENDING
        self._ok = True
        self._triggered = False
        self._processed = False
        self._cancelled = False
        self.generator = generator
        # Bound once: every resume calls it, and the bound method skips
        # re-binding ``generator.send`` per hop.
        self._send = generator.send
        self._name = name
        self.context: Any = sim.context
        self.deadline: Optional[float] = sim.deadline
        # Bootstrap: resume on the next kernel step at the current time
        # (a zero-delay schedule of the process as a resume entry).
        self._resuming = True
        self._r_ok = True
        self._r_value: Any = None
        seq = sim._sequence + 1
        sim._sequence = seq
        self._qseq = seq
        sim._push_now(self)

    @property
    def name(self) -> str:
        """The process name (defaults to the generator's name, lazily)."""
        name = self._name
        if name is None:
            name = self._name = getattr(self.generator, "__name__", "process")
        return name

    @property
    def is_alive(self) -> bool:
        """Whether the underlying generator has not yet finished."""
        return not self._triggered

    def _resume(self, event: Event) -> None:
        """Callback-compatible resume (used on the shared-event path)."""
        self._step(event._ok, event._value)

    def _step(self, ok: bool, value: Any) -> None:
        sim = self.sim
        if self.context is None and self.deadline is None \
                and sim.context is None and sim.deadline is None:
            # Fast resume: neither the process nor the simulator carries
            # a trace context or deadline, so the inherit-and-swap around
            # the generator hop is a no-op — skip it and only *capture*
            # if the generator set either slot during this resume.  This
            # is every resume of an untraced, deadline-free run.
            try:
                if ok:
                    target = self._send(value)
                else:
                    target = self.generator.throw(value)
            except StopIteration as stop:
                if sim.context is not None or sim.deadline is not None:
                    self.context = sim.context
                    self.deadline = sim.deadline
                    sim.context = None
                    sim.deadline = None
                # Inlined self.succeed(stop.value) — once per process,
                # but the call frame showed up in kernel profiles.
                if self._triggered:
                    raise SimulationError("event already triggered")
                if self._cancelled:
                    raise SimulationError("event was cancelled")
                self._ok = True
                self._value = stop.value
                self._triggered = True
                seq = sim._sequence + 1
                sim._sequence = seq
                self._qseq = seq
                sim._push_now(self)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate into waiters
                if sim.context is not None or sim.deadline is not None:
                    self.context = sim.context
                    self.deadline = sim.deadline
                    sim.context = None
                    sim.deadline = None
                self.fail(exc)
                return
            if sim.context is not None or sim.deadline is not None:
                self.context = sim.context
                self.deadline = sim.deadline
                sim.context = None
                sim.deadline = None
        else:
            target = self._step_swapped(ok, value)
            if target is None:
                return
        # ``_processed`` doubles as the is-this-an-event check: anything
        # a generator yields that lacks the slot was not an Event (the
        # swapped path pre-validates, so it never lands in the except).
        try:
            target_processed = target._processed
        except AttributeError:
            self._throw_non_event(target)
            return
        if target_processed:
            # The event already fired; bounce — re-queue ourselves so the
            # resume lands at the current time *after* everything already
            # scheduled, exactly where the old kernel's helper event fired
            # (a zero-delay schedule).
            self._resuming = True
            self._r_ok = target._ok
            self._r_value = target._value
            seq = sim._sequence + 1
            sim._sequence = seq
            self._qseq = seq
            sim._push_now(self)
        elif target._waiter is None and target._callbacks is None:
            target._waiter = self
        else:
            target.callbacks.append(self._resume)

    def _step_swapped(self, ok: bool, value: Any) -> Optional[Event]:
        """The general resume: full context/deadline inherit-and-swap.

        Returns the yielded event, or ``None`` when the generator
        finished (or errored) and the process has already been
        triggered.
        """
        sim = self.sim
        prev_context = sim.context
        prev_deadline = sim.deadline
        sim.context = self.context
        sim.deadline = self.deadline
        try:
            try:
                if ok:
                    target = self._send(value)
                else:
                    target = self.generator.throw(value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return None
            except BaseException as exc:  # noqa: BLE001 - propagate into waiters
                self.fail(exc)
                return None
            if not isinstance(target, Event):
                self._throw_non_event(target)
                return None
            return target
        finally:
            # Capture context/deadline mutations made by the generator (span
            # pushes and pops, deadline stamps) and restore whatever was
            # active before the resume.
            self.context = sim.context
            self.deadline = sim.deadline
            sim.context = prev_context
            sim.deadline = prev_deadline

    def _throw_non_event(self, target: Any) -> None:
        """Throw the yielded-non-event error into the generator."""
        exc = SimulationError(
            f"process {self.name!r} yielded non-event {target!r}"
        )
        try:
            self.generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
        except BaseException as err:  # noqa: BLE001
            self.fail(err)


class AllOf(Event):
    """Succeeds when all child events succeed; fails on the first failure.

    The value is a list of the child events' values, in input order.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self._children:
            if child.processed:
                self._on_child(child)
            else:
                child.callbacks.append(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self._triggered:
            return
        if not child.ok:
            self.fail(child._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c._value for c in self._children])


class KOf(Event):
    """Succeeds when ``k`` of the child events have succeeded.

    The quorum-wait building block: a replicated write resumes once the
    required acknowledgements arrive while the stragglers complete in
    the background.  Child failures are tolerated as long as the quorum
    is still achievable — with ``n`` children, up to ``n - k`` failures
    are absorbed; the ``(n - k + 1)``-th failure makes ``k`` successes
    impossible and fails the quorum with that child's exception.  This
    is what lets a replicated write survive a crashed replica when the
    survivors still form a quorum.
    """

    __slots__ = ("_needed", "_failures_left")

    def __init__(self, sim: "Simulator", events: Iterable[Event], k: int):
        super().__init__(sim)
        children = list(events)
        if k < 0 or k > len(children):
            raise SimulationError(
                f"need 0 <= k <= {len(children)}, got {k}"
            )
        self._needed = k
        self._failures_left = len(children) - k
        if k == 0:
            self.succeed()
            return
        for child in children:
            if child.processed:
                self._on_child(child)
            else:
                child.callbacks.append(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self._triggered:
            return
        if not child.ok:
            self._failures_left -= 1
            if self._failures_left < 0:
                self.fail(child._value)
            return
        self._needed -= 1
        if self._needed == 0:
            self.succeed()


class Simulator:
    """The event loop: owns simulated time and the pending-event queues.

    The scheduler is a two-lane calendar queue.  The *now lane*
    (``_nowq``) is a deque holding, in FIFO sequence order, events due
    at the current instant; the *far lane* is a binary heap of bare
    fire *times* (``_heap``) whose events live in per-time buckets
    (``_far``) for timed events.  Two invariants make the merge exact
    with no per-event comparison at all:

    * every far-lane time is strictly ``> now`` — pushes are
      ``now + delay`` with ``delay > 0``, and advancing the clock
      consumes a bucket *whole*, so a bucket at the current time never
      lingers;
    * bucket events predate (in sequence) anything scheduled while they
      fire — the global sequence only grows — so when the clock
      advances, splicing the entire bucket onto the (empty) now lane
      preserves exact ``(time, sequence)`` order against everything
      those events then schedule.

    The hot loop is therefore just "pop the now lane; when it is empty,
    pop the next time and splice its bucket" — O(1) deque ops for the
    zero-delay majority, one heap sift per distinct *time* (not per
    event) for the rest.
    """

    __slots__ = ("_now", "_heap", "_far", "_nowq", "_push_now",
                 "_sequence", "context", "deadline", "tracer",
                 "_timeout_pool", "timeout", "process")

    def __init__(self):
        self._now: float = 0.0
        #: Far-lane heap of *times only*.  Heap compares on bare floats
        #: cost roughly half of tuple compares, and the merge test
        #: against the now lane becomes a single float comparison.  Each
        #: time appears once; its events live in the ``_far`` buckets.
        self._heap: list[float] = []
        #: Far-lane buckets: time -> the event scheduled for that
        #: instant, or a list of them (oldest first) when several share
        #: the exact time.  The single-event form skips a list
        #: allocation for the overwhelmingly common unique-time case;
        #: list buckets preserve sequence order because the global
        #: sequence only ever grows, so draining front-to-back is
        #: exactly ``(time, sequence)`` order.
        self._far: dict[float, Any] = {}
        #: The now lane.  A ``deque`` keeps O(1) FIFO ops in C and —
        #: because the object identity never changes — lets the run
        #: loop hoist it into a local once instead of re-reading the
        #: attribute per event.
        self._nowq: "deque[Event]" = deque()
        #: Bound ``_nowq.append`` — the single most-called operation in
        #: the engine; the slot-held bound method saves one attribute
        #: hop per zero-delay schedule.
        self._push_now = self._nowq.append
        self._sequence = 0
        #: Opaque per-process context (the active trace span, when tracing).
        self.context: Any = None
        #: Absolute deadline of the active request, or ``None``.  Inherited
        #: and swapped per process exactly like :attr:`context`.
        self.deadline: Optional[float] = None
        #: The attached ``repro.trace.Tracer``, or ``None`` when not tracing.
        self.tracer: Any = None
        #: Recycled :class:`Timeout` objects for the fused resource fast
        #: path (see ``Resource.use``).  Only events whose full lifecycle
        #: is kernel-controlled are ever pooled.
        self._timeout_pool: list[Timeout] = []
        #: Event factories, bound as C-level partials: ``timeout(delay,
        #: value=None)`` builds a :class:`Timeout`, ``process(generator,
        #: name=None)`` spawns a :class:`Process`.  Held in slots (not
        #: methods) to skip one Python frame per call on the two hottest
        #: construction paths; the tests' ``ReferenceScheduler`` rebinds
        #: ``timeout`` to route around the inlined scheduling.
        self.timeout = partial(Timeout, self)
        self.process = partial(Process, self)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def _timeout_pooled(self, delay: float) -> Timeout:
        """A pooled valueless timeout for callers that own its lifecycle.

        The caller must guarantee nothing else ever sees the object and
        hand it back via :meth:`_recycle_timeout` only after it fired and
        was consumed.  ``Resource.use`` / ``Disk`` / ``Network`` hold
        durations; user-visible timeouts never come from the pool.
        """
        pool = self._timeout_pool
        if not pool:
            return Timeout(self, delay)
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        timeout = pool.pop()
        timeout._processed = False
        timeout.delay = delay
        # Scheduled exactly as ``Timeout.__init__`` schedules.
        seq = self._sequence + 1
        self._sequence = seq
        timeout._qseq = seq
        if delay == 0.0:
            self._push_now(timeout)
        else:
            when = self._now + delay
            far = self._far
            bucket = far.get(when)
            if bucket is None:
                far[when] = timeout
                heapq.heappush(self._heap, when)
            elif bucket.__class__ is list:
                bucket.append(timeout)
            else:
                far[when] = [bucket, timeout]
        return timeout

    def _recycle_timeout(self, timeout: Timeout) -> None:
        """Return a pool-born timeout after it fired and was consumed."""
        if timeout._processed and not timeout._cancelled \
                and timeout._waiter is None and timeout._callbacks is None \
                and len(self._timeout_pool) < 64:
            self._timeout_pool.append(timeout)

    def detached(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a process that does NOT inherit the active deadline.

        Background server work triggered by a request (commit-log syncs,
        memtable flushes, hint replay, WAL appends) must outlive the
        request's deadline; trace context still propagates so latency
        attribution is unchanged.
        """
        saved = self.deadline
        self.deadline = None
        try:
            return Process(self, generator, name=name)
        finally:
            self.deadline = saved

    def deadline_exceeded(self) -> bool:
        """Whether the active request's deadline has already passed."""
        deadline = self.deadline
        return deadline is not None and self._now >= deadline

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event succeeding once every event in ``events`` has succeeded."""
        return AllOf(self, events)

    def k_of(self, events: Iterable[Event], k: int) -> KOf:
        """Event succeeding once ``k`` of ``events`` have succeeded."""
        return KOf(self, events, k)

    # -- the drive loop ----------------------------------------------------

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` picks where the one drive loop stops:

        * an :class:`Event` — once that event is processed; its value is
          returned, and a failed event re-raises its exception.  Running
          out of events first raises :class:`SimulationError`
          (deadlock);
        * ``None`` — when both lanes are empty (quiescence).  The loop
          runs against a fresh, never-triggered event, which takes no
          sequence number;
        * a number — at that simulated time.  Everything due at or
          before it fires, then the clock is set to it.

        Each pass pops the now lane, or else advances the clock and
        splices the next far-lane bucket; the horizon is tested only on
        that clock-advance branch, once per distinct time.  The dispatch
        is inlined (one branch on the shared ``_resuming`` flag in place
        of a megamorphic method call): a resume entry advances its
        generator, anything else snapshots its waiter and callbacks,
        then notifies them (one-shot: nothing that subscribes during
        the notification runs).  This is the hottest code in the repo,
        so the queues are held in locals.
        """
        horizon = inf
        if isinstance(until, Event):
            stop = until
        else:
            stop = Event(self)
            if until is not None:
                horizon = float(until)
                if horizon < self._now:
                    raise SimulationError(
                        f"cannot run until {horizon} (now is {self._now})"
                    )
        nowq = self._nowq
        heap = self._heap
        heappop = heapq.heappop
        popleft = nowq.popleft
        far = self._far
        while not stop._processed:
            if nowq:
                event = popleft()
            elif heap and heap[0] <= horizon:
                self._now = when = heappop(heap)
                bucket = far.pop(when)
                if bucket.__class__ is list:
                    nowq.extend(bucket)
                    event = popleft()
                else:
                    event = bucket
            else:
                break
            if event._cancelled:
                continue
            if event._resuming:
                event._resuming = False
                value = event._r_value
                event._r_value = None
                event._step(event._r_ok, value)
                continue
            event._processed = True
            waiter = event._waiter
            cbs = event._callbacks
            if cbs is None:
                if waiter is not None:
                    event._waiter = None
                    waiter._step(event._ok, event._value)
            else:
                event._waiter = None
                event._callbacks = None
                if waiter is not None:
                    waiter._step(event._ok, event._value)
                for callback in cbs:
                    callback(event)
        if stop is not until:
            if until is not None:
                self._now = horizon
            return None
        if not stop._processed:
            raise SimulationError(
                "simulation ran out of events before the awaited "
                "event fired (deadlock?)"
            )
        if stop._ok:
            return stop._value
        raise stop._value
