"""The original single-heap scheduler: the kernel's differential oracle.

Moved here unchanged from ``repro.sim.kernel``, where nothing but these
tests used it: ``test_kernel_differential.py``, ``test_kernel_ordering.py``
and ``test_kernel_properties.py`` run identical workloads through
:class:`ReferenceScheduler` and the calendar-queue ``Simulator`` and
compare event for event.  It subclasses the production ``Simulator`` and
swaps in falsy stand-ins for the now lane and the timeout freelist, so it
shares the driver code and differs only in the queue.
"""

from __future__ import annotations

import heapq
from typing import Any, Optional

from repro.sim.kernel import Event, SimulationError, Simulator, Timeout

__all__ = ["ReferenceScheduler"]


class _ReferenceLane:
    """A now lane that redirects every append into the single heap.

    Installed as ``_nowq`` by :class:`ReferenceScheduler`.  The kernel's
    inlined trigger paths (``succeed``/``fail``, timeouts, process
    bootstraps and bounces) schedule zero-delay events by appending to
    ``sim._nowq``; here each append becomes the classic
    ``(now, sequence)`` heap push instead.  The lane is always falsy, so
    every inherited queue inspection and run loop takes its heap branch —
    restoring the pre-fast-path single-heap semantics without duplicating
    the driver code.
    """

    __slots__ = ("sim",)

    def __init__(self, sim: "ReferenceScheduler"):
        self.sim = sim

    def __bool__(self) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def append(self, event: Event) -> None:
        sim = self.sim
        heapq.heappush(sim._heap, (sim._now, event._qseq, event))

    def popleft(self) -> Event:
        raise IndexError("the reference now lane is always empty")


class _NoPool:
    """A freelist stand-in that is always empty and always full.

    Installed as ``_timeout_pool`` by :class:`ReferenceScheduler`: falsy,
    so inlined pool-hit fast paths (``Resource.use``) never activate on
    the oracle, and reporting itself at capacity so recycle guards never
    append to it.  The oracle therefore allocates a fresh object per
    event, the trivially correct strategy.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def __len__(self) -> int:
        return 64

    def append(self, item: Any) -> None:  # pragma: no cover - guarded out
        pass

    def pop(self) -> Any:  # pragma: no cover - pools are checked first
        raise IndexError("pop from the reference no-pool")


class ReferenceScheduler(Simulator):
    """The original single-heap scheduler, kept as the differential oracle.

    Every event — zero-delay or timed — goes through one binary heap of
    ``(time, sequence, event)`` tuples, exactly as the pre-fast-path
    kernel did.  Zero-delay scheduling reaches the heap through the
    :class:`_ReferenceLane` now-lane stand-in, and timeout creation is
    rerouted through :meth:`_schedule` (the fast kernel inlines its
    bucket pushes, which must not touch this scheduler's tuple heap).
    The differential suite runs identical workloads through this and the
    calendar-queue :class:`Simulator` and asserts the event orderings and
    result digests match; any ordering bug in the fast lanes shows up as
    a divergence from this oracle.  Slow by design — never use it for
    real experiments.
    """

    __slots__ = ()

    def __init__(self):
        super().__init__()
        self._nowq = _ReferenceLane(self)  # type: ignore[assignment]
        self._push_now = self._nowq.append
        self._timeout_pool = _NoPool()  # type: ignore[assignment]
        self.timeout = self._timed  # type: ignore[assignment]

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        seq = self._sequence + 1
        self._sequence = seq
        event._qseq = seq
        heapq.heappush(self._heap, (self._now + delay, seq, event))

    def _timed(self, delay: float, value: Any = None) -> Timeout:
        """Build a timeout without the fast kernel's inlined push."""
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        timeout = Timeout.__new__(Timeout)
        timeout.sim = self
        timeout._callbacks = None
        timeout._waiter = None
        timeout._value = value
        timeout._ok = True
        timeout._triggered = True
        timeout._processed = False
        timeout._cancelled = False
        timeout.delay = delay
        self._schedule(timeout, delay)
        return timeout

    def _timeout_pooled(self, delay: float) -> Timeout:
        # The oracle never pools: allocation strategy is invisible to
        # the event stream, and fresh objects keep it trivially correct.
        return self._timed(delay)

    def _pop(self) -> Optional[Event]:
        if not self._heap:
            return None
        when, __, event = heapq.heappop(self._heap)
        self._now = when
        return event

    def run(self, until: Optional[Any] = None) -> Any:
        heap = self._heap
        heappop = heapq.heappop
        if isinstance(until, Event):
            stop_event = until
            while not stop_event._processed:
                if not heap:
                    raise SimulationError(
                        "simulation ran out of events before the awaited "
                        "event fired (deadlock?)"
                    )
                when, __, event = heappop(heap)
                self._now = when
                event._fire()
            if stop_event.ok:
                return stop_event._value
            raise stop_event._value
        if until is None:
            while heap:
                when, __, event = heappop(heap)
                self._now = when
                event._fire()
            return None
        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(
                f"cannot run until {horizon} (now is {self._now})"
            )
        while heap and heap[0][0] <= horizon:
            when, __, event = heappop(heap)
            self._now = when
            event._fire()
        self._now = max(self._now, horizon)
        return None
