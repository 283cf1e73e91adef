"""Overload resilience: bounded queues, deadlines, admission, budgets.

The subsystem turns congestion collapse into graceful degradation:

* **bounded queues** — executor channels and node resources reject work
  deterministically once their backlog hits ``OverloadPolicy.max_queue``
  (:class:`~repro.sim.faults.OverloadError`);
* **request deadlines** — the client stamps every operation with a
  deadline that propagates through the kernel
  (``Simulator.deadline``), so queued or in-flight work for a dead
  request is abandoned at the next check-site
  (:class:`~repro.sim.faults.DeadlineExceededError`);
* **admission control** — per-store semantics in all six coordinators
  (Cassandra replica-queue shedding, HBase handler-pool caps, VoltDB
  site-queue limits, Redis event-loop backlog, MySQL/Voldemort
  connection-pool gates);
* **retry governance** — a token-bucket :class:`RetryBudget` shared by
  all client threads, plus a :class:`CircuitBreaker` that stops
  retrying nodes the chaos controller marked down.

``repro.overload.openloop`` adds the goodput-vs-offered-load harness
(open-loop arrivals, saturation search, protected/unprotected sweeps);
it is imported lazily because it depends on the YCSB runner, which in
turn imports the stores — and the stores import the admission gates
from this package.
"""

from repro.overload.admission import AdmissionGate
from repro.overload.budget import CircuitBreaker, RetryBudget
from repro.overload.policy import OverloadPolicy
from repro.overload.shapes import (ArrivalShape, DiurnalShape,
                                   FlashCrowdShape, SHAPES, StepShape,
                                   parse_shape)

__all__ = [
    "AdmissionGate",
    "ArrivalShape",
    "CircuitBreaker",
    "DiurnalShape",
    "FlashCrowdShape",
    "OverloadPolicy",
    "RetryBudget",
    "SHAPES",
    "StepShape",
    "parse_shape",
    # lazy (see __getattr__):
    "OverloadPoint",
    "OverloadSweep",
    "find_saturation",
    "goodput_sweep",
    "run_overload_point",
]

_LAZY = {"OverloadPoint", "OverloadSweep", "find_saturation",
         "goodput_sweep", "run_overload_point"}


def __getattr__(name: str):
    if name in _LAZY:
        from repro.overload import openloop

        return getattr(openloop, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
