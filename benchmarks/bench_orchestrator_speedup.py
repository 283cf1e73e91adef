"""Wall-clock speedup of parallel grid execution.

Runs the same 8-point grid (2 stores x 2 workloads x 2 node counts)
sequentially and with four workers — fresh stores each time, so nothing
is served from cache — and logs the measured speedup.  The >=2x
assertion only applies on machines with at least four cores; the
measurement itself is always printed and lands in the CI log either way.
The two runs must also agree byte-for-byte, parallelism or not.
"""

import os
import time

from repro.analysis.sweep import SweepSpec, run_sweep
from repro.orchestrator import ResultStore
from repro.ycsb.workload import WORKLOAD_R, WORKLOAD_RW

SPEC = SweepSpec(
    stores=("redis", "mysql"), workloads=(WORKLOAD_R, WORKLOAD_RW),
    node_counts=(1, 2), records_per_node=1500, measured_ops=800,
    warmup_ops=100,
)


def run_grid(tmp_path, name, jobs):
    store = ResultStore(tmp_path / name)
    cached = []
    started = time.perf_counter()
    sweep = run_sweep(
        SPEC, jobs=jobs, store=store,
        progress=lambda done, total, outcome: cached.append(outcome.cached))
    elapsed = time.perf_counter() - started
    assert len(sweep.results) == 8 and not sweep.skipped
    assert cached == [False] * 8
    return store, elapsed


def blob_bytes(store):
    return {path.stem: path.read_bytes()
            for path in sorted(store.root.glob("objects/*/*.json"))}


def test_parallel_speedup(tmp_path):
    cores = os.cpu_count() or 1
    store_seq, seq_s = run_grid(tmp_path, "seq", jobs=1)
    store_par, par_s = run_grid(tmp_path, "par4", jobs=4)
    speedup = seq_s / par_s if par_s > 0 else float("inf")
    print(f"\norchestrator speedup: sequential {seq_s:.2f}s, "
          f"--jobs 4 {par_s:.2f}s -> {speedup:.2f}x on {cores} core(s)")

    assert blob_bytes(store_seq) == blob_bytes(store_par)
    if cores >= 4:
        assert speedup >= 2.0, (
            f"expected >=2x speedup with 4 workers on {cores} cores, "
            f"measured {speedup:.2f}x (sequential {seq_s:.2f}s, "
            f"parallel {par_s:.2f}s)")
