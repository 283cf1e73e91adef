"""Differential kernel harness: the fast scheduler vs the heap oracle.

The calendar-queue :class:`Simulator` replaced the original single-heap
scheduler for ~4x engine throughput.  Its correctness bar is exact:
every workload must produce the *identical* event stream — same
process-visible interleaving, same timestamps, same values, same final
sequence count — as :class:`ReferenceScheduler`, which preserves the
pre-fast-path ``(time, sequence, event)`` heap implementation verbatim.

Each workload here is seeded, runs through both schedulers, and is
compared twice: the full observation logs must be equal element by
element (so a divergence pinpoints the first differing observation),
and their digests must match (the compact form the kernel-touching
workflow in DESIGN.md quotes).  The grids deliberately stress what the
fast path optimises: zero-delay storms on the now lane, exact-time
collisions in the far buckets, cancelled timers (lazy deletion),
detached background processes, freelist-recycled requests/timeouts
under contention, and failure propagation through the compositors.
"""

import hashlib
import random

import pytest

from repro.sim.kernel import SimulationError, Simulator
from repro.sim.resources import Resource

from tests.sim.reference_scheduler import ReferenceScheduler


def _run(scheduler_cls, build, seed):
    """Run one workload under ``scheduler_cls``; return its observations."""
    sim = scheduler_cls()
    log = []
    rng = random.Random(seed)
    build(sim, log, rng)
    sim.run()
    log.append(("final", round(sim.now, 12), sim._sequence))
    return log


def _digest(log) -> str:
    payload = "\n".join(repr(entry) for entry in log)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def assert_schedulers_agree(build, seeds=(1, 2, 3)):
    """The core differential assertion, over a few seeds."""
    for seed in seeds:
        fast = _run(Simulator, build, seed)
        oracle = _run(ReferenceScheduler, build, seed)
        for index, (got, want) in enumerate(zip(fast, oracle)):
            assert got == want, (
                f"seed {seed}: first divergence at observation {index}: "
                f"fast={got!r} oracle={want!r}")
        assert len(fast) == len(oracle), (
            f"seed {seed}: fast made {len(fast)} observations, "
            f"oracle {len(oracle)}")
        assert _digest(fast) == _digest(oracle)


# -- workload builders -------------------------------------------------------


def build_mixed_timeouts(sim, log, rng):
    """Timer storms: zero delays, duplicate delays, far-future tails."""
    delays = [0.0, 0.0, 0.001, 0.001, 0.0005, 0.0035, 0.25, 1e-9]

    def worker(tag, ops):
        for op in range(ops):
            delay = delays[int(rng.uniform(0, len(delays)))]
            yield sim.timeout(delay, value=(tag, op))
            log.append((tag, op, round(sim.now, 12)))

    for index in range(12):
        sim.process(worker(f"w{index}", 20), name=f"mixed-{index}")


def build_simultaneous(sim, log, rng):
    """Many events landing on the exact same instants (bucket collisions)."""

    def worker(tag):
        for op in range(15):
            # Every worker picks from the same tiny delay set, so each
            # instant hosts many events and ordering is decided purely
            # by the (time, sequence) contract.
            yield sim.timeout(0.001 * (op % 3))
            log.append((tag, op, round(sim.now, 12)))

    for index in range(16):
        sim.process(worker(f"s{index}"))
    # A sprinkle of bare events triggered from a driver process.
    events = [sim.event() for _ in range(8)]

    def driver():
        for index, event in enumerate(events):
            event.succeed(index)
            yield sim.timeout(0.0005)

    def watcher(tag, event):
        value = yield event
        log.append((tag, value, round(sim.now, 12)))

    for index, event in enumerate(events):
        sim.process(watcher(f"watch{index}", event))
    sim.process(driver())


def build_cancels(sim, log, rng):
    """Timeout guards that lose races: lazy deletion must not divert."""

    def guarded(tag):
        for op in range(10):
            work = sim.timeout(0.001 * (1 + int(rng.uniform(0, 3))))
            guard = sim.timeout(0.01, value="guard")
            yield sim.k_of([work, guard], 1)
            index = 0 if work.processed else 1
            (guard if index == 0 else work).cancel()
            log.append((tag, op, index, round(sim.now, 12)))

    for index in range(8):
        sim.process(guarded(f"g{index}"))


def build_detached(sim, log, rng):
    """Detached background work interleaving with foreground requests."""

    def flush(tag):
        yield sim.timeout(0.004)
        log.append(("flush", tag, round(sim.now, 12)))

    def frontend(tag):
        for op in range(8):
            sim.deadline = sim.now + 0.5
            yield sim.timeout(0.001)
            sim.detached(flush(f"{tag}:{op}"))
            sim.deadline = None
            log.append((tag, op, round(sim.now, 12)))

    for index in range(6):
        sim.process(frontend(f"f{index}"))


def build_contended_resources(sim, log, rng):
    """The bench shape: pooled requests/timeouts under heavy contention."""
    stations = [Resource(sim, 2, f"diff:{i}") for i in range(3)]

    def worker(tag, index):
        for op in range(12):
            station = stations[(index + op) % len(stations)]
            yield sim.process(station.use(0.001))
            yield sim.timeout(0.0005 * ((index + op) % 5))
            log.append((tag, op, round(sim.now, 12)))

    for index in range(20):
        sim.process(worker(f"r{index}", index))

    def inspector():
        # Raw request()/release() alongside use(): grants must interleave
        # identically with the pooled fast path.
        station = stations[0]
        for op in range(6):
            req = station.request()
            yield req
            yield sim.timeout(0.002)
            station.release(req)
            log.append(("inspect", op, round(sim.now, 12)))

    sim.process(inspector())


def build_failures_and_compositors(sim, log, rng):
    """AllOf/KOf with failures mixed in."""

    def may_fail(tag, delay, ok):
        yield sim.timeout(delay)
        if not ok:
            raise SimulationError(f"boom:{tag}")
        return tag

    def coordinator(tag):
        for op in range(6):
            children = [
                sim.process(may_fail(f"{tag}:{op}:{i}", 0.001 * (i % 3),
                                     ok=(rng.uniform(0, 1) < 0.7)))
                for i in range(4)
            ]
            try:
                values = yield sim.k_of(children, 2)
                log.append((tag, op, "quorum", values, round(sim.now, 12)))
            except SimulationError as exc:
                log.append((tag, op, "failed", str(exc), round(sim.now, 12)))
            # Let the stragglers drain so the next round starts clean.
            for child in children:
                if child.is_alive:
                    try:
                        yield child
                    except SimulationError:
                        pass
            yield sim.timeout(0.0005)

    for index in range(5):
        sim.process(coordinator(f"q{index}"))


WORKLOADS = {
    "mixed_timeouts": build_mixed_timeouts,
    "simultaneous": build_simultaneous,
    "cancels": build_cancels,
    "detached": build_detached,
    "contended_resources": build_contended_resources,
    "failures_and_compositors": build_failures_and_compositors,
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fast_scheduler_matches_oracle(name):
    assert_schedulers_agree(WORKLOADS[name])


def test_oracle_is_single_heap():
    """The oracle really is the classic implementation: one tuple heap."""
    sim = ReferenceScheduler()
    sim.timeout(0.5)
    sim.timeout(0.0)
    assert len(sim._heap) == 2
    assert all(isinstance(entry, tuple) for entry in sim._heap)
    assert not sim._far
    assert not sim._nowq  # the lane stand-in is always empty
    sim.run()
    assert sim.now == 0.5


def test_oracle_never_pools_timeouts():
    """The timeout freelist stays disabled on the oracle.

    A pooled timeout's construction is inlined for the fast scheduler
    (bare-float far push), which would corrupt the oracle's tuple heap
    — so the oracle's pool stand-in is permanently empty (falsy, so the
    inlined pool-hit branches never activate) while reporting itself at
    capacity (so recycle guards never append).  Request pooling, by
    contrast, is pure allocation reuse and scheduler-agnostic.
    """
    sim = ReferenceScheduler()
    station = Resource(sim, 1, "oracle")

    def worker():
        for _ in range(5):
            yield sim.process(station.use(0.001))

    sim.process(worker())
    sim.run()
    assert not sim._timeout_pool
    assert len(sim._timeout_pool) >= 64
    assert all(isinstance(entry, tuple) for entry in sim._heap) or \
        not sim._heap
