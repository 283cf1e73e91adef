"""Hypothesis properties for the calendar-queue scheduler.

Three invariants the fast path must hold under *arbitrary* interleavings
of schedule / cancel / zero-delay operations, not just the seeded grids
of the differential suite:

* events fire in exact ``(time, sequence)`` order — time never goes
  backwards, and among simultaneous events the one scheduled first
  fires first;
* a cancelled event never fires and never resurrects, no matter where
  its queue entry sits (now lane, far bucket, or the oracle heap);
* the freelists (kernel timeout pool, per-resource request pool) only
  ever hand out *inert* objects and never hold the same object twice —
  recycling can therefore never alias an event that is still live.

Every generated plan also runs through :class:`ReferenceScheduler` and
must produce the identical fire log — driven to quiescence, to a stop
event or in horizon slices — which makes each Hypothesis example a
miniature differential test.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Simulator
from repro.sim.resources import Resource

from tests.sim.reference_scheduler import ReferenceScheduler

#: Delay menu: zero-delay (now lane), duplicates (bucket collisions),
#: and a spread of timed delays (far lane).
DELAYS = [0.0, 0.0, 0.0005, 0.001, 0.001, 0.0035]

op_strategy = st.tuples(
    st.sampled_from(range(len(DELAYS))),  # delay index
    st.sampled_from(["timeout", "event", "race"]),
)
plan_strategy = st.lists(
    st.lists(op_strategy, min_size=1, max_size=6),
    min_size=1, max_size=5,
)
#: How a plan is driven: ``None`` runs to quiescence, ``"stop"`` to the
#: end of every worker, a tuple of times in horizon slices (times from
#: the delay menu, so a horizon often lands on an event) — each then
#: runs to quiescence.
drive_strategy = st.one_of(
    st.none(), st.just("stop"),
    st.lists(st.sampled_from([0.0, 0.0005, 0.001, 0.002, 0.0035, 0.0115]),
             min_size=1, max_size=3).map(lambda cuts: tuple(sorted(cuts))),
)


def _execute(scheduler_cls, plan, drive=None):
    """Run a generated plan; return (fired log, cancelled ids, sim)."""
    sim = scheduler_cls()
    fired = []
    cancelled = []

    def watch(tag, event):
        # Log the *exact* float instant: the (time, sequence) contract
        # holds per exact time value, and rounding here once collapsed
        # two distinct instants (0.0055 vs 0.002 + 0.0035) into a fake
        # "simultaneous" pair whose sequence order the test then
        # wrongly constrained.
        event.callbacks.append(
            lambda e, t=tag: fired.append((sim.now, e._qseq, t)))

    def worker(windex, ops):
        for opindex, (delay_index, kind) in enumerate(ops):
            tag = f"{windex}:{opindex}"
            if kind == "timeout":
                timeout = sim.timeout(DELAYS[delay_index])
                watch(tag, timeout)
                yield timeout
            elif kind == "event":
                event = sim.event()
                watch(tag, event)
                event.succeed(tag)
                yield event
            else:  # race: two timers, cancel the loser
                fast = sim.timeout(DELAYS[delay_index])
                slow = sim.timeout(DELAYS[delay_index] + 0.01)
                watch(tag + ":fast", fast)
                yield fast
                slow.cancel()
                cancelled.append(slow)

    workers = [sim.process(worker(windex, ops), name=f"prop-{windex}")
               for windex, ops in enumerate(plan)]
    if drive == "stop":
        sim.run(until=sim.all_of(workers))
        fired.append((sim.now, sim._sequence, "stop"))
    elif drive is not None:
        for cut in drive:
            sim.run(until=cut)
            fired.append((sim.now, sim._sequence, f"cut:{cut}"))
    sim.run()
    return fired, cancelled, sim


@settings(max_examples=60, deadline=None)
@given(plan=plan_strategy)
def test_interleavings_preserve_time_sequence_order(plan):
    fired, _, _ = _execute(Simulator, plan)
    times = [entry[0] for entry in fired]
    assert times == sorted(times), "time went backwards"
    for (t1, q1, _), (t2, q2, _) in zip(fired, fired[1:]):
        if t1 == t2:
            assert q1 < q2, (
                f"simultaneous events fired out of schedule order: "
                f"seq {q1} before {q2} at t={t1}")


@settings(max_examples=60, deadline=None)
@given(plan=plan_strategy, drive=drive_strategy)
def test_fast_scheduler_matches_oracle_on_random_plans(plan, drive):
    fast_fired, _, fast_sim = _execute(Simulator, plan, drive)
    oracle_fired, _, oracle_sim = _execute(ReferenceScheduler, plan, drive)
    assert fast_fired == oracle_fired
    assert fast_sim._sequence == oracle_sim._sequence
    assert round(fast_sim.now, 12) == round(oracle_sim.now, 12)


@settings(max_examples=60, deadline=None)
@given(plan=plan_strategy)
def test_cancelled_events_never_resurrect(plan):
    for scheduler_cls in (Simulator, ReferenceScheduler):
        fired, cancelled, _ = _execute(scheduler_cls, plan)
        fired_tags = {tag for (_, _, tag) in fired}
        for event in cancelled:
            assert not event.processed
            assert event.cancelled
        # A cancelled slow timer carries no watcher tag of its own, but
        # double-check no fire carries a sequence number belonging to one.
        cancelled_seqs = {event._qseq for event in cancelled}
        assert not cancelled_seqs & {q for (_, q, _) in fired}
        assert all(":fast" in tag or ":" in tag for tag in fired_tags)


class AuditedPool(list):
    """A freelist that asserts its safety invariants on every hand-off.

    ``pop`` may only ever return an *inert* event — processed, not
    cancelled, with no waiter and no callbacks — because anything else
    is still visible to live simulation code and recycling it would
    alias two logical events onto one object.  ``append`` must never
    see an object that is already pooled (double-free).
    """

    def pop(self, *args):
        item = super().pop(*args)
        assert item._processed, "freelist handed out an unfired event"
        assert not item._cancelled, "freelist handed out a cancelled event"
        assert item._waiter is None, "freelist handed out a waited-on event"
        assert item._callbacks is None, (
            "freelist handed out an event with live callbacks")
        return item

    def append(self, item):
        assert all(item is not existing for existing in self), (
            "event double-freed into the pool")
        super().append(item)


@settings(max_examples=40, deadline=None)
@given(
    n_workers=st.integers(min_value=1, max_value=12),
    capacity=st.integers(min_value=1, max_value=3),
    ops=st.integers(min_value=1, max_value=10),
    delay_plan=st.lists(st.sampled_from(range(len(DELAYS))),
                        min_size=1, max_size=8),
)
def test_freelists_never_alias_live_events(n_workers, capacity, ops,
                                           delay_plan):
    sim = Simulator()
    sim._timeout_pool = AuditedPool()
    station = Resource(sim, capacity, "audited")
    station._req_pool = AuditedPool()

    def worker(index):
        for op in range(ops):
            hold = DELAYS[delay_plan[(index + op) % len(delay_plan)]]
            yield sim.process(station.use(hold))
            yield sim.timeout(0.0005 * ((index + op) % 3))

    for index in range(n_workers):
        sim.process(worker(index))
    sim.run()
    # Pools were exercised and ended bounded.
    assert len(sim._timeout_pool) <= 64
    assert len(station._req_pool) <= 64
