"""Kernel-speed baseline: events/sec of the bare simulation engine.

Times the quiescence mode (``sim.run()``) of the kernel's one drive
loop, ``Simulator.run``, on a store-free workload (timer wheels plus
contended resources, the two things every simulated operation
exercises), and compares against its committed rows (workload
``kernel-micro``) in ``BENCH_E2E.json``, the one perf trajectory at the
repo root.  A simulated benchmark point runs the same loop to a stop
event.

Two checks, deliberately asymmetric:

* **determinism is strict** — the workload's event count and final
  simulated clock must match the committed values exactly; a drift
  means kernel semantics changed, which is a correctness event, not a
  performance one;
* **speed is lenient** — wall-clock varies across machines, so the run
  only fails when it drops below ``FLOOR_FRACTION`` of the committed
  events/sec (a 4x regression on the same order of machine).

Record a row after an intentional kernel change with::

    PYTHONPATH=src python -m benchmarks.bench_kernel --record

which keeps one row per package version — the per-PR trajectory the
kernel-speed work will be judged against.
"""

import os
import sys
import time

import repro
from benchmarks.record_bench_e2e import read_rows, write_rows
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource

#: The ``workload`` of this bench's rows in ``BENCH_E2E.json``.
KERNEL_WORKLOAD = "kernel-micro"

#: Fail only below this fraction of the committed events/sec.  The
#: default is forgiving (machines vary 4x); CI's ``kernel-smoke`` job
#: tightens it to 0.75 so a >25% regression against the committed
#: trajectory fails the build on the known runner class.
FLOOR_FRACTION = float(os.environ.get("REPRO_KERNEL_FLOOR", "0.25"))

#: The seed trajectory entry (pre-fast-path kernel, v1.3.0): the
#: denominator for the fast-path speedup gate below.
SEED_EVENTS_PER_S = 239_215
SEED_VERSION = "1.3.0"

#: Workload shape: enough events to dominate interpreter warm-up while
#: keeping the bench under a few seconds.
N_RESOURCES = 8
N_WORKERS = 200
OPS_PER_WORKER = 250


def _worker(sim, resources, index):
    for op in range(OPS_PER_WORKER):
        resource = resources[(index + op) % len(resources)]
        yield sim.process(resource.use(0.001))
        yield sim.timeout(0.0005 * ((index + op) % 7 + 1))


def run_kernel_workload():
    """One deterministic engine-only run; returns its measurements."""
    sim = Simulator()
    resources = [Resource(sim, 2, f"kernel-bench:{i}")
                 for i in range(N_RESOURCES)]
    for index in range(N_WORKERS):
        sim.process(_worker(sim, resources, index),
                    name=f"kernel-worker-{index}")
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    # The kernel's monotone event sequence is the exact count of events
    # ever scheduled — the engine-speed denominator.
    events = sim._sequence
    return {
        "events": events,
        "sim_time": round(sim.now, 9),
        "elapsed_s": elapsed,
        "events_per_s": events / elapsed if elapsed > 0 else 0.0,
    }


def _committed_rows():
    """This bench's rows of the trajectory, oldest first."""
    return [row for row in read_rows() if row["workload"] == KERNEL_WORKLOAD]


def record(measured):
    """Write ``measured`` as this package version's row."""
    label = f"v{repro.__version__} (kernel micro-bench)"
    rows = [row for row in read_rows() if row["label"] != label]
    rows.append({
        "label": label, "workload": KERNEL_WORKLOAD,
        "events": measured["events"], "sim_time": measured["sim_time"],
        "events_per_s": round(measured["events_per_s"]),
    })
    write_rows(rows)


#: Speed replicas: wall-clock on shared machines is noisy, so the
#: recorded/compared events/sec is the best of this many runs (the
#: ``timeit.repeat`` convention — the minimum wall time is the one
#: least disturbed by other load).  Determinism is asserted on every
#: replica; speed takes the max.
SPEED_REPLICAS = 5


def measure_best_replica(first=None):
    """The fastest of ``SPEED_REPLICAS`` runs, all of them identical in
    event count and final clock."""
    measured = first if first is not None else run_kernel_workload()
    for _ in range(SPEED_REPLICAS - 1):
        replica = run_kernel_workload()
        assert replica["events"] == measured["events"]
        assert replica["sim_time"] == measured["sim_time"]
        if replica["events_per_s"] > measured["events_per_s"]:
            measured = replica
    print()
    print(f"kernel: {measured['events']:,} events in "
          f"{measured['elapsed_s']:.3f}s wall = "
          f"{measured['events_per_s']:,.0f} events/s "
          f"(sim time {measured['sim_time']:.3f}s)")
    return measured


def test_kernel_speed_baseline(benchmark):
    """Engine throughput against the committed ``kernel-micro`` rows."""
    measured = measure_best_replica(benchmark.pedantic(
        run_kernel_workload, rounds=1, iterations=1, warmup_rounds=1))
    rows = _committed_rows()
    assert rows, (f"BENCH_E2E.json has no {KERNEL_WORKLOAD} row; record one "
                  "with `python -m benchmarks.bench_kernel --record`")
    committed = rows[-1]
    # Determinism: same workload, same engine -> same event count and
    # final clock, to the last event.
    assert measured["events"] == committed["events"], (
        f"kernel event count drifted: {measured['events']:,} vs "
        f"committed {committed['events']:,} — engine semantics changed")
    assert measured["sim_time"] == committed["sim_time"], (
        f"final simulated clock drifted: {measured['sim_time']} vs "
        f"committed {committed['sim_time']}")
    # Speed: lenient floor, loud print; the trajectory is the signal.
    floor = FLOOR_FRACTION * committed["events_per_s"]
    print(f"committed {committed['events_per_s']:,.0f} events/s "
          f"({committed['label']}); floor {floor:,.0f}")
    assert measured["events_per_s"] >= floor, (
        f"kernel speed {measured['events_per_s']:,.0f} events/s fell "
        f"below {FLOOR_FRACTION:.0%} of the committed "
        f"{committed['events_per_s']:,.0f}")


def test_kernel_trajectory_records_fast_path():
    """The committed trajectory proves the fast path: >=4x the seed.

    The gate inspects the *committed* rows, not a fresh measurement —
    it can never flake on a loaded machine, and it fails if anyone
    records a number that gives the speedup back.
    """
    rows = _committed_rows()
    assert len(rows) >= 2, (
        "trajectory lost its history: expected the seed row plus at "
        "least one fast-path row")
    seed = rows[0]
    assert seed["label"].startswith(f"v{SEED_VERSION} ")
    assert seed["events_per_s"] == SEED_EVENTS_PER_S
    latest = rows[-1]
    # Same workload, to the event and the final simulated instant.
    assert latest["events"] == seed["events"]
    assert latest["sim_time"] == seed["sim_time"]
    assert latest["events_per_s"] >= 4 * SEED_EVENTS_PER_S, (
        f"committed kernel speed {latest['events_per_s']:,} events/s is "
        f"below 4x the {SEED_EVENTS_PER_S:,} seed")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m benchmarks.bench_kernel --record")
    record(measure_best_replica())
    print(f"recorded v{repro.__version__} in BENCH_E2E.json")
