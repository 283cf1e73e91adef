"""One-command full-paper reproduction.

:func:`reproduce` turns a list of figure ids into artefacts on disk:

1. **Plan** — probe the figure builders against the result store
   (:mod:`repro.orchestrator.plan`) to find the points still missing.
2. **Execute** — fan the missing points out over a worker pool
   (:mod:`repro.orchestrator.pool`), persisting each result into the
   content-addressed store as it completes.  Result-dependent points
   (Figures 15/16 derive bounded-load targets from measured maxima)
   surface in a second planning wave.
3. **Build & export** — rebuild every figure from the store (a memo
   whose runner only reads it: every point is there by now, and a build
   pass that could run points would be a second way to run a batch) and
   write the JSON/CSV artefacts.

Because every point is a pure function of its config and exports carry
no wall-clock state, ``reproduce(..., jobs=8)`` emits artefacts
byte-identical to a sequential run.  A run killed half-way resumes by
being run again with the same arguments: the plan finds the finished
points in the store and only the missing ones execute.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional

from repro.analysis.cache import ResultCache
from repro.analysis.expectations import check_expectations
from repro.analysis.export import load_figure, write_figure
from repro.analysis.figures import (FIGURES, BenchProfile, FigureData,
                                    active_profile, expand_figure_ids)
from repro.orchestrator.plan import GridPlan, plan_figures
from repro.orchestrator.pool import execute_grid
from repro.orchestrator.store import ResultStore

__all__ = ["ReproduceReport", "reproduce", "verify_figures"]

#: Safety valve on planning convergence.  Figure grids are at most two
#: result-dependence layers deep; anything deeper is a planner bug.
MAX_WAVES = 6


@dataclass
class ReproduceReport:
    """Everything one reproduction run did."""

    figures: list[str]
    profile_name: str
    out_dir: Optional[Path]
    #: Distinct grid points behind the figures.
    points_total: int
    points_executed: int
    points_cached: int
    waves: int
    wall_s: float
    #: content hash -> worker wall seconds, this run only.
    point_walls: dict[str, float] = field(default_factory=dict)
    #: figure id -> what was built, in the order asked for.
    data: dict[str, FigureData] = field(default_factory=dict)
    written: list[Path] = field(default_factory=list)
    #: Expectation violations (populated when ``check=True``).
    violations: list[str] = field(default_factory=list)
    #: The plan, when ``dry_run=True`` (nothing was executed).
    plan: Optional[GridPlan] = None

    @property
    def ok(self) -> bool:
        return not self.violations


def reproduce(figures: str | Iterable[str] = "all",
              profile: Optional[BenchProfile] = None,
              store: ResultStore | str | Path | None = None,
              out_dir: str | Path | None = "apmbench-results/figures",
              jobs: int = 1,
              dry_run: bool = False,
              check: bool = False,
              progress: Optional[Callable] = None) -> ReproduceReport:
    """Regenerate paper figures end to end; see the module docstring.

    ``store`` defaults to ``apmbench-results/store``.  The store is the
    only record a run keeps: calling again with the same arguments after
    a crash executes just the points it does not hold yet.
    """
    figure_ids = expand_figure_ids(figures)
    profile = profile or active_profile()
    if not isinstance(store, ResultStore):
        store = ResultStore(store if store is not None
                            else "apmbench-results/store")

    if dry_run:
        plan = plan_figures(figure_ids, profile, store)
        return ReproduceReport(
            figures=figure_ids, profile_name=profile.name, out_dir=None,
            points_total=len(plan.missing) + plan.cached,
            points_executed=0, points_cached=plan.cached, waves=0,
            wall_s=0.0, plan=plan)

    started = time.perf_counter()
    cached = 0
    point_walls: dict[str, float] = {}
    waves = 0
    while True:
        plan = plan_figures(figure_ids, profile, store)
        if waves == 0:
            cached = plan.cached
        if not plan.missing:
            break
        if waves >= MAX_WAVES:
            raise RuntimeError(
                f"figure grid failed to converge after {MAX_WAVES} "
                "planning waves; a builder is deriving configs "
                "non-deterministically")
        outcomes = execute_grid(plan.missing, jobs=jobs, store=store,
                                progress=progress)
        for outcome in outcomes:
            if outcome.cached:
                cached += 1
            else:
                point_walls[outcome.content_hash] = outcome.wall_s
        waves += 1

    report = ReproduceReport(
        figures=figure_ids, profile_name=profile.name,
        out_dir=Path(out_dir) if out_dir is not None else None,
        points_total=len(point_walls) + cached,
        points_executed=len(point_walls), points_cached=cached,
        waves=waves, wall_s=time.perf_counter() - started,
        point_walls=point_walls)

    # Build every figure from the now-complete store and export it.
    build_cache = ResultCache(runner=store.get)
    for figure_id in figure_ids:
        data = FIGURES[figure_id](build_cache, profile)
        report.data[figure_id] = data
        if out_dir is not None:
            report.written.extend(write_figure(data, out_dir,
                                              config=profile))
        if check:
            report.violations.extend(check_expectations(data))
    report.wall_s = time.perf_counter() - started
    return report


def verify_figures(directory: str | Path,
                   figures: str | Iterable[str] = "all") -> list[str]:
    """Check exported figure JSON against the paper's tolerance bands.

    Loads ``<directory>/<figure_id>.json`` for every requested figure
    and runs :func:`repro.analysis.expectations.check_expectations` on
    it.  Returns the list of violations; a missing or unreadable export
    is itself a violation.
    """
    directory = Path(directory)
    figure_ids = expand_figure_ids(figures)
    violations: list[str] = []
    for figure_id in figure_ids:
        path = directory / f"{figure_id}.json"
        if not path.is_file():
            violations.append(f"{figure_id}: missing export {path}")
            continue
        try:
            data = load_figure(path)
        except Exception as error:
            violations.append(f"{figure_id}: unreadable export {path}: "
                              f"{error}")
            continue
        violations.extend(check_expectations(data))
    return violations
