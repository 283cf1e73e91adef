"""Overhead of the self-APM overlay on the closed-loop runner.

The observability layer (``repro.obs``) is a watcher: it must not
change what it watches, and it must be cheap enough to leave on.  This
benchmark runs the same seeded YCSB point three ways —

* **bare** — no overlay at all (the pre-obs fast path);
* **no-slo** — overlay attached but zero SLOs configured, so every
  operation takes only the tail-sampler + recorder bookkeeping path;
* **full** — the default SLO set with burn-rate evaluation, exemplars
  and flight recorder, i.e. what ``apmbench obs`` runs.

and prints the per-variant wall clock.  Two assertions are strict
(measured operations, errors and throughput identical across all three
variants — the overlay is passive) and one is a lenient wall-clock cap:
the full overlay may not triple the bare runtime.  The fast-path
budget is enforced where it can't flake: CI's ``kernel-smoke`` job runs
``bench_kernel.py`` — which never touches ``repro.obs`` — against the
committed trajectory.
"""

import time

from repro.obs import ObsPolicy, default_slos
from repro.ycsb.runner import run_benchmark
from repro.ycsb.workload import WORKLOADS

POINT = dict(records_per_node=2000, measured_ops=2000, warmup_ops=200,
             seed=42)

#: Best-of-N wall clock, the ``timeit.repeat`` convention: the minimum
#: is the measurement least disturbed by other load on the machine.
REPLICAS = 3

#: The full overlay does real per-op work (SLO classification, window
#: bookkeeping, exemplar capture); this cap only catches gross
#: regressions, not single-digit-percent drift.
MAX_FULL_OVERHEAD = 3.0


def timed_run(obs_policy):
    best = None
    result = None
    for _ in range(REPLICAS):
        started = time.perf_counter()
        result = run_benchmark("redis", WORKLOADS["R"], 1,
                               obs=obs_policy, **POINT)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def test_obs_overlay_overhead():
    bare, bare_s = timed_run(None)
    no_slo, no_slo_s = timed_run(ObsPolicy())
    full, full_s = timed_run(ObsPolicy(slos=default_slos()))

    print()
    for label, elapsed in (("bare", bare_s), ("no-slo overlay", no_slo_s),
                           ("full overlay", full_s)):
        print(f"obs overhead: {label:>14s} {elapsed:.3f}s wall "
              f"({elapsed / bare_s - 1.0:+.1%} vs bare)")

    # The overlay is passive: every variant measures the same run.
    for variant in (no_slo, full):
        assert variant.stats.operations == bare.stats.operations
        assert variant.stats.errors == bare.stats.errors
        assert variant.throughput_ops == bare.throughput_ops

    assert full_s <= MAX_FULL_OVERHEAD * bare_s, (
        f"full observability overlay took {full_s:.3f}s vs {bare_s:.3f}s "
        f"bare — over the {MAX_FULL_OVERHEAD:.0f}x gross-regression cap")
