"""Simulation-validated capacity planner (``apmbench plan``).

Answers "what cluster serves this load?" in three stages:

1. **Demand** — a :class:`~repro.plan.spec.LoadSpec` turns users into a
   required operation rate via the paper's Section 8 arithmetic
   (:mod:`repro.core.capacity`).
2. **Analytical prune** — :func:`~repro.plan.search.analytical_frontier`
   searches store x hardware x node count with the per-store throughput
   model (:mod:`repro.plan.model`), keeping only the minimal feasible
   node count per (store, hardware) pair.
3. **Simulate the frontier** — :func:`~repro.plan.validate.validate_frontier`
   runs every survivor as a real bounded-load benchmark through the
   orchestrator's content-addressed store, and
   :func:`~repro.plan.report.build_report` recommends the cheapest
   configuration the *simulation* (not the model) confirms, with
   model-vs-simulation deltas on display.

Netflix-style capacity models stop after stage 2; the whole point of
this subsystem is stage 3, because an analytical model is optimistic by
construction and silent about latency percentiles.
"""

from __future__ import annotations

from repro.orchestrator.store import ResultStore
from repro.plan.hardware import (HARDWARE_PROFILES, HardwareProfile,
                                 hardware_profile)
from repro.plan.model import ModeledCapacity, modeled_capacity
from repro.plan.report import PlanReport, build_report
from repro.plan.search import (Candidate, FrontierEntry, FrontierResult,
                               analytical_frontier)
from repro.plan.spec import LoadSpec, SLOTarget, parse_slo
from repro.plan.validate import (SLOCheck, ValidationOutcome,
                                 ValidationSettings,
                                 estimate_validation_cost,
                                 validate_frontier, validation_config)
from repro.stores.registry import STORE_NAMES

__all__ = [
    "Candidate",
    "FrontierEntry",
    "FrontierResult",
    "HARDWARE_PROFILES",
    "HardwareProfile",
    "LoadSpec",
    "ModeledCapacity",
    "PlanReport",
    "SLOCheck",
    "SLOTarget",
    "ValidationOutcome",
    "ValidationSettings",
    "analytical_frontier",
    "build_report",
    "estimate_validation_cost",
    "hardware_profile",
    "modeled_capacity",
    "parse_slo",
    "run_plan",
    "validate_frontier",
    "validation_config",
]


def run_plan(spec: LoadSpec,
             stores: tuple[str, ...] = STORE_NAMES,
             profiles: tuple[HardwareProfile, ...] | None = None,
             settings: ValidationSettings | None = None,
             store: ResultStore | None = None,
             jobs: int = 1) -> PlanReport:
    """The full pipeline: prune analytically, simulate, recommend."""
    if settings is None:
        settings = ValidationSettings()
    frontier = analytical_frontier(
        spec, stores=stores, profiles=profiles,
        records_per_node=settings.records_per_node)
    outcomes = validate_frontier(frontier.entries, spec, settings,
                                 store=store, jobs=jobs)
    return build_report(spec, settings, frontier, outcomes)
