"""Parallel grid execution over a process pool.

Each grid point is a pure function of its :class:`BenchmarkConfig` — the
simulator draws every random number from streams seeded by the config's
own seed — so executing points in parallel, in any order, on any worker,
produces results byte-identical to a sequential run.  Workers receive
the config in its dict form, run the benchmark, and persist the result
straight into the shared on-disk store (atomically), which is what makes
a killed run resumable: finished points are on disk, in-flight points
simply vanish and re-run when the same grid is executed again.

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
                 progress: Optional[Callable] = None,
                 ) -> list[PointOutcome]:
    """Execute every point of ``configs``; returns outcomes in input order.

    ``jobs > 1`` fans the points out over a ``ProcessPoolExecutor``;
    ``jobs <= 1`` runs them inline (same worker entry and the same
    bookkeeping, so the two modes cannot drift).  ``progress`` is called
    as ``progress(done_count, total, outcome)`` after every point.

    A failing point aborts the grid, at any ``jobs``, with a
    ``RuntimeError`` that names the point and chains the worker's error.
    Unstarted points are cancelled; points already running finish and
    write their blobs before it propagates, so calling again with the
    same ``configs`` serves those as hits and runs only what is missing.
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

    def finished(config: BenchmarkConfig, wall_s: float,
                 payload: dict) -> None:
        note(config, wall_s, False, result_from_dict(payload))

    def failed(config: BenchmarkConfig, error: Exception) -> RuntimeError:
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
            try:
                done = _execute_payload(config.to_dict(), store_root)
            except Exception as error:
                raise failed(config, error)
            finished(config, *done)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(_execute_payload, config.to_dict(),
                                   store_root): config
                       for config in pending}
            for future in as_completed(futures):
                error = future.exception()
                if error is not None:
                    # Abort: nothing new starts, and leaving the pool
                    # waits for a point already running to write its blob.
                    for other in futures:
                        other.cancel()
                    raise failed(futures[future], error)
                finished(futures[future], *future.result())

    # Input order, for callers that zip outcomes back onto their grid.
    return [outcomes[config.content_hash()] for config in configs]
