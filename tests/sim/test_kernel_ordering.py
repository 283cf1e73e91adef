"""Regression pins for the kernel's ``(time, sequence)`` ordering contract.

The kernel guarantees exactly one thing about simultaneous events: among
events due at the same instant, the one *scheduled first* fires first.
Nothing — in ``sim/`` or ``stores/`` — may rely on any finer tie-break
(heap layout, object identity, arrival lane).  These tests pin the
contract at every seam the calendar-queue fast path introduced: the now
lane, far-bucket splices, resource grant handoffs, and compositor
notification order.  If a future scheduler change breaks any of these,
the failure names the seam directly instead of surfacing as a drifted
benchmark digest.
"""

import pytest

from repro.sim.kernel import Simulator
from repro.sim.resources import Resource

from tests.sim.reference_scheduler import ReferenceScheduler


@pytest.fixture(params=[Simulator, ReferenceScheduler],
                ids=["fast", "oracle"])
def sim(request):
    return request.param()


def test_mixed_kind_ties_fire_in_schedule_order(sim):
    """Bare events, zero timeouts, and bootstraps interleave by sequence."""
    order = []

    def proc(tag):
        order.append(tag)
        yield sim.timeout(0.0)

    event_a = sim.event()
    event_a.callbacks.append(lambda e: order.append("event-a"))
    event_a.succeed()                      # seq 1
    sim.process(proc("proc-b"))            # seq 2 (bootstrap)
    timeout_c = sim.timeout(0.0)           # seq 3
    timeout_c.callbacks.append(lambda e: order.append("timeout-c"))
    event_d = sim.event()
    event_d.callbacks.append(lambda e: order.append("event-d"))
    event_d.succeed()                      # seq 4
    sim.run()
    assert order == ["event-a", "proc-b", "timeout-c", "event-d"]


def test_far_bucket_fires_whole_before_fresh_work(sim):
    """Timers sharing an instant all fire before anything they schedule."""
    order = []

    def timed(tag):
        yield sim.timeout(0.005)
        order.append(tag)
        # Fresh zero-delay work scheduled *during* the bucket must wait
        # for the rest of the bucket.
        chase = sim.event()
        chase.callbacks.append(lambda e, t=tag: order.append(f"chase-{t}"))
        chase.succeed()

    for index in range(4):
        sim.process(timed(f"t{index}"))
    sim.run()
    assert order == ["t0", "t1", "t2", "t3",
                     "chase-t0", "chase-t1", "chase-t2", "chase-t3"]


def test_release_handoff_is_fifo_among_simultaneous_waiters(sim):
    """A freed slot goes to the longest-queued request, by sequence.

    All four claims land at t=0.  The ``use``-holder spawns a
    sub-process, so its claim carries a *later* sequence number than
    the three direct ``request()`` calls — the contract says it
    therefore queues behind all of them, even though it was the first
    process spawned.
    """
    station = Resource(sim, 1, "pin")
    grants = []

    def holder():
        yield sim.process(station.use(0.001))
        grants.append(("holder", round(sim.now, 9)))

    def waiter(tag):
        req = station.request()
        yield req
        grants.append((tag, round(sim.now, 9)))
        yield sim.timeout(0.001)
        station.release(req)

    sim.process(holder())
    for tag in ("w0", "w1", "w2"):
        sim.process(waiter(tag))
    sim.run()
    assert grants == [("w0", 0.0), ("w1", 0.001), ("w2", 0.002),
                      ("holder", 0.004)]


def test_sequence_numbers_are_consumed_identically(sim):
    """The event stream's sequence counter is scheduler-independent."""
    station = Resource(sim, 2, "seq")

    def worker(index):
        for op in range(5):
            yield sim.process(station.use(0.001))
            yield sim.timeout(0.0005 * ((index + op) % 3))

    for index in range(6):
        sim.process(worker(index))
    sim.run()
    # One bootstrap + grant + timeout + completion + pause per op, plus
    # the worker processes' own lifecycle events; the exact total is
    # pinned so any scheduler change that adds or removes helper events
    # (changing every downstream seed-sensitive digest) fails here.
    assert sim._sequence == 162
    assert round(sim.now, 9) == 0.016
