"""Overhead of the audit history recorder on the closed-loop runner.

The audit layer (``repro.audit``) is pure bookkeeping on the Python
side of the clock: recording a run must not change what the run does,
and must stay cheap enough to leave on for every chaos experiment.
This benchmark runs the same seeded YCSB point twice —

* **bare** — no recorder (the pre-audit fast path);
* **audited** — a :class:`HistoryRecorder` attached via
  ``run_benchmark(audit=...)``, logging one record per client op;

asserts the measurements are identical (the recorder is passive) and
caps the wall-clock overhead at a gross-regression bound.  The strict
kernel budget is CI's ``kernel-smoke`` job: ``bench_kernel.py`` never
imports ``repro.audit``, so its floor is the only gate needed.
"""

import time

from repro.audit import HistoryRecorder
from repro.ycsb.runner import run_benchmark
from repro.ycsb.workload import WORKLOADS

POINT = dict(records_per_node=2000, measured_ops=2000, warmup_ops=200,
             seed=42)

#: Best-of-N wall clock, the ``timeit.repeat`` convention.
REPLICAS = 3

#: One dataclass append per op is noise next to the simulation itself;
#: the cap only catches gross regressions.
MAX_AUDIT_OVERHEAD = 1.5


def timed_run(with_audit):
    best = None
    result = recorder = None
    for _ in range(REPLICAS):
        recorder = HistoryRecorder(sim=None) if with_audit else None
        started = time.perf_counter()
        result = run_benchmark("redis", WORKLOADS["RW"], 1,
                               audit=recorder, **POINT)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return result, recorder, best


def test_audit_recorder_overhead():
    bare, _, bare_s = timed_run(False)
    audited, recorder, audited_s = timed_run(True)

    print()
    print(f"audit overhead: bare    {bare_s:.3f}s wall")
    print(f"audit overhead: audited {audited_s:.3f}s wall "
          f"({audited_s / bare_s - 1.0:+.1%} vs bare, "
          f"{len(recorder)} records)")

    # Passive: the audited run is the same run.
    assert audited.stats.operations == bare.stats.operations
    assert audited.stats.errors == bare.stats.errors
    assert audited.throughput_ops == bare.throughput_ops
    assert len(recorder) > 0

    assert audited_s <= MAX_AUDIT_OVERHEAD * bare_s, (
        f"audit recorder took {audited_s:.3f}s vs {bare_s:.3f}s bare — "
        f"over the {MAX_AUDIT_OVERHEAD:.1f}x gross-regression cap")
