"""Consistency & durability audit layer.

A passive layer that records every client operation's invocation,
acknowledgement and outcome against simulated time, and checks the
resulting history for the guarantees the deployment claims:

* **durability** — every acknowledged write is readable after faults
  heal, reconciled against the chaos controller's declared-loss
  manifest (:mod:`repro.audit.checkers`);
* **session guarantees** — read-your-writes and monotonic reads per
  client session;
* **per-key linearizability** — a windowed Wing–Gong search over
  register histories (:mod:`repro.audit.linearize`; its brute-force
  oracle for tiny histories is beside the tests);
* **staleness** — version lag of replicated reads behind the latest
  acknowledged write, reported as a distribution.

Like :mod:`repro.obs`, the layer stays **out** of ``BenchmarkConfig``:
auditing a run must not change its content key or its results — the
recorder observes, it never touches simulated time.
"""

from repro.audit.checkers import (check_durability, check_sessions,
                                  check_staleness)
from repro.audit.harness import (AuditReport, AuditScenario,
                                 run_audit_scenario, standard_schedule)
from repro.audit.history import HistoryRecorder, OpRecord
from repro.audit.linearize import RegisterOp, check_linearizable
from repro.audit.sweep import QuorumSweep, render_sweep, run_quorum_sweep

__all__ = [
    "AuditReport",
    "AuditScenario",
    "HistoryRecorder",
    "OpRecord",
    "QuorumSweep",
    "RegisterOp",
    "check_durability",
    "check_linearizable",
    "check_sessions",
    "check_staleness",
    "render_sweep",
    "run_audit_scenario",
    "run_quorum_sweep",
    "standard_schedule",
]
