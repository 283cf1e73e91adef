"""Experiment orchestration: plan, execute and persist benchmark grids.

The paper's evaluation is a large configuration grid (6 stores x 5
workloads x node counts on two clusters).  This package turns that grid
into a managed artifact pipeline:

* :mod:`repro.orchestrator.store` — a content-addressed, on-disk result
  store shared across processes and runs.  It is also how a killed run
  resumes: the same command run again serves every finished point from
  the store and runs only the missing ones.
* :mod:`repro.orchestrator.plan` — cache-aware grid planning by probing
  the figure builders, including result-dependent points.
* :mod:`repro.orchestrator.pool` — :func:`execute_grid`, the one way to
  run a batch of points: store hits served, misses run inline or over a
  process pool (byte-identical either way) and persisted by the worker
  that ran them.  Figures, ``apmbench grid``,
  :func:`repro.analysis.sweep.run_sweep` and planner validation all come
  through it; nothing else writes the store.
* :mod:`repro.orchestrator.reproduce` — the one-command entry point
  behind ``apmbench reproduce --figures all --jobs N``.
"""

from repro.orchestrator.plan import (GridPlan, PlanningCache, derive_seed,
                                     estimate_cost_units, plan_figures)
from repro.orchestrator.pool import PointOutcome, execute_grid, run_config
from repro.orchestrator.reproduce import (ReproduceReport, reproduce,
                                          verify_figures)
from repro.orchestrator.serialize import (UnportableResultError,
                                          result_from_dict, result_to_dict)
from repro.orchestrator.store import ResultStore

__all__ = [
    "GridPlan",
    "PlanningCache",
    "PointOutcome",
    "ReproduceReport",
    "ResultStore",
    "UnportableResultError",
    "derive_seed",
    "estimate_cost_units",
    "execute_grid",
    "plan_figures",
    "reproduce",
    "result_from_dict",
    "result_to_dict",
    "run_config",
    "verify_figures",
]
