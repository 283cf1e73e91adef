"""Parallel grid execution over a process pool.

Each grid point is a pure function of its :class:`BenchmarkConfig` — the
simulator draws every random number from streams seeded by the config's
own seed — so executing points in parallel, in any order, on any worker,
produces results byte-identical to a sequential run.  Workers receive
the config in its dict form, run the benchmark, and persist the result
straight into the shared on-disk store (atomically), which is what makes
a killed run resumable: finished points are on disk, in-flight points
simply vanish and re-run.

:func:`execute_grid` is the one way to run a batch of points, and its
worker entry the one writer of a :class:`ResultStore`: figures, sweeps,
``apmbench grid`` and planner validation all come through here.
Cache-aware scheduling lives here too: points already present in the
store are served from it without ever reaching a worker.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Optional

from repro.orchestrator.serialize import result_from_dict, result_to_dict
from repro.orchestrator.store import ResultStore
from repro.ycsb.runner import BenchmarkConfig, BenchmarkResult, run_config

#: ``run_config`` is re-exported: the name this module calls is the seam
#: tests replace to watch or fake a worker's run.
__all__ = ["PointOutcome", "execute_grid", "run_config"]


def _execute_payload(payload: dict,
                     store_root: Optional[str]) -> tuple[float, dict]:
    """Worker entry point: run one point from its wire form.

    Returns ``(wall_s, result_payload)``.  The result is written to the
    store *inside the worker* so a completed point survives even if the
    parent dies before collecting the future.
    """
    config = BenchmarkConfig.from_dict(payload)
    started = time.perf_counter()
    result = run_config(config)
    wall_s = time.perf_counter() - started
    result_payload = result_to_dict(result)
    if store_root is not None:
        ResultStore(store_root).put(result)
    return wall_s, result_payload


@dataclass
class PointOutcome:
    """What happened to one planned grid point."""

    config: BenchmarkConfig
    content_hash: str
    wall_s: float
    cached: bool
    result: BenchmarkResult


def execute_grid(configs: list[BenchmarkConfig], jobs: int = 1,
                 store: Optional[ResultStore] = None,
                 manifest=None,
                 progress: Optional[Callable] = None,
                 ) -> list[PointOutcome]:
    """Execute every point of ``configs``; returns outcomes in input order.

    ``jobs > 1`` fans the points out over a ``ProcessPoolExecutor``;
    ``jobs <= 1`` runs them inline (same worker entry and the same three
    bookkeeping steps, so the two modes cannot drift).  ``manifest`` (a
    :class:`~repro.orchestrator.manifest.RunManifest`) receives
    start/done/error events; ``progress`` is called as
    ``progress(done_count, total, outcome)`` after every point.

    A failing point aborts the grid, at any ``jobs``, with a
    ``RuntimeError`` that names the point and chains the worker's error.
    Unstarted points are cancelled; points already running finish first,
    so every blob in the store has its ``done`` event and is a hit on
    resume.
    """
    total = len(configs)
    outcomes: dict[str, PointOutcome] = {}
    done_count = 0

    def note(config: BenchmarkConfig, wall_s: float, cached: bool,
             result: BenchmarkResult) -> None:
        nonlocal done_count
        done_count += 1
        outcome = PointOutcome(config, config.content_hash(), wall_s,
                               cached, result)
        outcomes[outcome.content_hash] = outcome
        if progress is not None:
            progress(done_count, total, outcome)

    def started(config: BenchmarkConfig) -> None:
        if manifest is not None:
            manifest.record_start(config.content_hash())

    def finished(config: BenchmarkConfig, wall_s: float,
                 payload: dict) -> None:
        if manifest is not None:
            manifest.record_done(config.content_hash(), wall_s)
        note(config, wall_s, False, result_from_dict(payload))

    def failed(config: BenchmarkConfig, error: Exception) -> RuntimeError:
        if manifest is not None:
            manifest.record_error(config.content_hash(), str(error))
        failure = RuntimeError(
            f"grid point {config.label()} failed: {error}")
        failure.__cause__ = error
        return failure

    pending: list[BenchmarkConfig] = []
    for config in configs:
        stored = store.get(config) if store is not None else None
        if stored is None:
            pending.append(config)
        else:
            note(config, 0.0, True, stored)

    store_root = str(store.root) if store is not None else None

    if jobs <= 1 or len(pending) <= 1:
        for config in pending:
            started(config)
            try:
                done = _execute_payload(config.to_dict(), store_root)
            except Exception as error:
                raise failed(config, error)
            finished(config, *done)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {}
            for config in pending:
                started(config)
                futures[pool.submit(_execute_payload, config.to_dict(),
                                    store_root)] = config
            failures = []
            for future in as_completed(futures):
                if future.cancelled():
                    continue
                error = future.exception()
                if error is None:
                    finished(futures[future], *future.result())
                    continue
                # Abort: nothing new starts, but a point already running
                # still writes its blob, so the loop goes on to record it.
                failures.append(failed(futures[future], error))
                for other in futures:
                    other.cancel()
            if failures:
                raise failures[0]

    # Input order, for callers that zip outcomes back onto their grid.
    return [outcomes[config.content_hash()] for config in configs]
