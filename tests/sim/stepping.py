"""Drive a simulation one event at a time, outside ``Simulator.run``.

``Simulator.run`` inlines its pop and its dispatch, so code that wants
to look at every event between two dispatches does both here: the
event-for-event references (``tests/sim/test_channel_hold.py``,
``tests/stores/test_replica_fanout.py``) and the single-heap oracle
(``tests/sim/reference_scheduler.py``), which so dispatches with code
of its own rather than the fast kernel's.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.sim.kernel import Event, Simulator

__all__ = ["fire", "pop", "step_through"]


def pop(sim: Simulator) -> Optional[Event]:
    """Dequeue ``sim``'s next event in ``(time, sequence)`` order from
    its two lanes, advancing the clock when the far lane wins; ``None``
    when both lanes are empty."""
    nowq = sim._nowq
    if nowq:
        return nowq.popleft()
    if not sim._heap:
        return None
    sim._now = when = heapq.heappop(sim._heap)
    bucket = sim._far.pop(when)
    if bucket.__class__ is not list:
        return bucket
    nowq.extend(bucket)
    return nowq.popleft()


def fire(event: Event) -> None:
    """Process one popped queue entry.

    A cancelled entry is skipped and a resume entry advances its
    generator with the buffered ``(ok, value)``.  Anything else is
    marked processed, its waiter and callbacks are snapshotted — what
    subscribes during notification never runs — and then notified in
    registration order.
    """
    if event._cancelled:
        return
    if event._resuming:
        event._resuming = False
        ok, value = event._r_ok, event._r_value
        event._r_value = None
        event._step(ok, value)
        return
    event._processed = True
    waiter, callbacks = event._waiter, event._callbacks
    event._waiter = event._callbacks = None
    if waiter is not None:
        waiter._step(event._ok, event._value)
    for callback in callbacks or ():
        callback(event)


def step_through(sim: Simulator) -> list:
    """Run ``sim`` to quiescence one event at a time; return each
    popped entry as ``(now, sequence number, type name)``."""
    events = []
    while (event := pop(sim)) is not None:
        events.append((sim.now, event._qseq, type(event).__name__))
        fire(event)
    return events
