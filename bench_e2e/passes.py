"""One pass over a workload: every point once, in the calling process.

A pass is what one fresh child process does (see ``runner.py``): a
throw-away warm-up of each point's code path, then the points one after
another, each through ``execute_grid`` into a fresh ``ResultStore`` as
users run them.  It is a closed loop with one caller and no threads.
All times are host time, and in an untraced pass they are divided by how
much slower than the reference the machine was meanwhile (see
``calibrate.py``); everything under ``counts`` is simulated or counted
and repeats exactly.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import shutil
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

from bench_e2e import api
from bench_e2e.calibrate import MIN_LOCAL_SPINS, SpeedSampler, slowdown
from bench_e2e.layers import point_layers
from bench_e2e.trace import SimSplit, Tracer
from bench_e2e.workloads import WORKLOADS, Point, Workload

__all__ = ["canonical", "check_point", "run_pass"]


def canonical(payload: dict) -> str:
    """The byte form of a result payload that digests are taken over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def check_point(config, counts: dict, computed: str, stored: str | None,
                cold_cached: bool, warm_cached: bool) -> list[str]:
    """Why this point's outputs are wrong; empty when they are right."""
    failures = []
    if counts["client.ops"] < config.measured_ops:
        failures.append(f"recorded {counts['client.ops']} client ops, fewer "
                        f"than the {config.measured_ops} configured")
    if counts["client.errors"]:
        failures.append(f"{counts['client.errors']} client or store errors "
                        "on a fault-free workload")
    if not counts["simstat.throughput_ops"] > 0:
        failures.append("simulated throughput is not positive")
    if stored != computed:
        failures.append("the result read back from the ResultStore differs "
                        "from the one the cold run returned")
    if cold_cached or not warm_cached:
        failures.append("the cold run must execute and the run over the "
                        "warm store must be a cache hit")
    return failures


def _run_point(workload: Workload, point: Point, seed: int, scale: float,
               instrument, scratch: Path) -> dict:
    config = point.config(workload.name, seed, scale)
    traced = isinstance(instrument, Tracer)
    speed = SpeedSampler()
    store_dir = tempfile.mkdtemp(prefix="store-", dir=scratch)
    try:
        store = api.ResultStore(store_dir)
        # Heap left by the previous point slows this one's load (measured:
        # the same MySQL load took 8.55 s instead of 6.5 s).
        gc.collect()
        with instrument.point(point.name), nullcontext() if traced else speed:
            cpu_started = time.process_time()
            started = time.perf_counter()
            cold, = api.execute_grid([config], jobs=1, store=store)
            ended = time.perf_counter()
            cpu_s = time.process_time() - cpu_started
        runs = instrument.runs
        if not runs:
            raise RuntimeError(f"{point.name} never entered Simulator.run; "
                               "set-up and simulation cannot be told apart")
        phases = {"setup_s": (started, runs[0][0]),
                  "sim_s": (runs[0][0], runs[-1][1]),
                  "rest_s": (runs[-1][1], ended)}
        spins = {phase: speed.between(*span) for phase, span in phases.items()}
        record = {
            "name": point.name,
            "cpu_s": cpu_s - sum(map(sum, spins.values())),
            # Clock seconds of each phase, without the spins inside it.
            "raw": {phase: end - start - sum(spins[phase])
                    for phase, (start, end) in phases.items()},
            "spins": spins,
        }
        if traced:
            record["layers"] = point_layers(instrument)
            record["spans"] = instrument.spans
        hit_started = time.perf_counter()
        warm, = api.execute_grid([config], jobs=1, store=store)
        hit_s = time.perf_counter() - hit_started
        stored = store.get(config)
    finally:
        shutil.rmtree(store_dir)
    computed = canonical(api.result_to_dict(cold.result))
    counts = api.result_facts(cold.result)
    counts["kernel.events"] = instrument.events
    counts["serialize.bytes"] = len(computed)
    record["counts"] = counts
    record["digest"] = hashlib.sha256(computed.encode()).hexdigest()
    record["checks"] = check_point(
        config, counts, computed,
        None if stored is None else canonical(api.result_to_dict(stored)),
        cold.cached, warm.cached)
    if "layers" in record:
        record["layers"]["resultstore.hit_s"] = hit_s
    return record


def _normalise(points: list[dict]) -> float:
    """Divide every phase's clock seconds by the machine's slowdown meanwhile.

    A phase long enough to hold ``MIN_LOCAL_SPINS`` is corrected by its own
    spins, a shorter one by all the spins of the pass, whose slowdown is
    returned.  A traced pass is not sampled: its slowdown is 1.
    """
    whole = slowdown([seconds for point in points
                      for spins in point["spins"].values()
                      for seconds in spins])
    for point in points:
        for phase, seconds in point["raw"].items():
            spins = point["spins"][phase]
            point[phase] = seconds / (slowdown(spins)
                                      if len(spins) >= MIN_LOCAL_SPINS
                                      else whole)
        point["wall_s"] = (point["setup_s"] + point["sim_s"]
                           + point.pop("rest_s"))
    return whole


def run_pass(workload_name: str, seed: int, scale: float, traced: bool,
             scratch: Path) -> dict:
    """Warm up, run every point of the workload once, and report.

    ``scratch`` must exist; the pass leaves nothing behind in it.
    """
    workload = WORKLOADS[workload_name]
    instrument = Tracer(workload.stores) if traced else SimSplit()
    with instrument:
        # The first point in a process pays ~0.4 s of imports and
        # first-call costs; users pay that once per grid, not per point.
        for point in workload.points:
            api.execute_grid([point.warm_up_config()], jobs=1)
        points = [_run_point(workload, point, seed, scale, instrument, scratch)
                  for point in workload.points]
    slower_by = _normalise(points)
    return {
        "workload": workload_name,
        "seed": seed,
        "scale": scale,
        "traced": traced,
        "slowdown": slower_by,
        "points": points,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
