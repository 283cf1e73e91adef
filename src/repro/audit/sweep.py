"""Quorum staleness sweep: R/W/N against the same chaos.

Runs the audit harness over a grid of ``(required_reads,
required_writes)`` points at fixed N on a replicated store (Cassandra
or Voldemort), under the same partition schedule, and reports staleness
and durability per point.  The payoff is the textbook pin made
empirical: overlapping quorums (``R+W > N``) yield **zero** stale
reads, while ``R=W=1`` shows measurable staleness after a partition —
the replica that was cut off silently missed writes and keeps serving
them old.

Points are independent simulations, so ``--jobs`` fans them over a
process pool; results are assembled in grid order, making the export
byte-identical at any parallelism level.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

from repro.analysis.provenance import stamp
from repro.audit.harness import AuditScenario, run_audit_scenario

__all__ = ["QuorumSweep", "run_quorum_sweep"]


@dataclass(frozen=True)
class QuorumSweep:
    """The sweep grid: one replicated store, fixed N, varying R/W."""

    store: str = "cassandra"
    n_nodes: int = 3
    replication_factor: int = 3
    #: ``(required_reads, required_writes)`` grid points, in report order.
    points: tuple[tuple[int, int], ...] = ((1, 1), (2, 2))
    fault: str = "partition"
    seed: int = 42
    n_sessions: int = 4
    n_keys: int = 12
    ops_per_session: int = 80
    write_fraction: float = 0.5
    op_gap_s: float = 0.02

    def scenarios(self) -> list[AuditScenario]:
        """One scenario a grid point: this sweep's fields but ``points``,
        plus the point's quorum sizes."""
        shared = asdict(self)
        del shared["points"]
        return [AuditScenario(**shared, required_writes=w, required_reads=r)
                for r, w in self.points]

    def to_dict(self) -> dict:
        return asdict(self)


def _run_point(scenario_fields: dict) -> dict:
    """Process-pool worker: rebuild the scenario and run it."""
    report = run_audit_scenario(AuditScenario(**scenario_fields))
    return report.to_dict()


def run_quorum_sweep(sweep: QuorumSweep, jobs: int = 1) -> dict:
    """Run every grid point; returns the stamped, JSON-ready report.

    ``jobs > 1`` runs points in a process pool.  Each point is a fully
    deterministic simulation and results are collected in grid order,
    so the report is byte-identical regardless of ``jobs``.
    """
    fields = [s.to_dict() for s in sweep.scenarios()]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_run_point, fields))
    else:
        reports = [_run_point(f) for f in fields]

    n = sweep.replication_factor
    points = []
    for (r, w), report in zip(sweep.points, reports):
        stale = report["staleness"]
        points.append({
            "r": r, "w": w, "n": n,
            "quorums_intersect": r + w > n,
            "stale_reads": stale["stale_reads"],
            "stale_fraction": stale["stale_fraction"],
            "max_lag": stale["max_lag"],
            "durability_violations": len(
                report["durability"]["violations"]),
            "session_violations": (
                len(report["sessions"]["read_your_writes"])
                + len(report["sessions"]["monotonic_reads"])),
            "linearizability_violations": len(
                report["linearizability"]["violations"]),
            "failures_by_kind": report["history"]["failures_by_kind"],
            "report": report,
        })

    overlapping = [p for p in points if p["quorums_intersect"]]
    weakest = [p for p in points if p["r"] == 1 and p["w"] == 1]
    pins = {
        # R+W>N: the read set intersects every write quorum, so the
        # max-version merge always surfaces the latest acked write.
        "overlap_zero_stale": (
            bool(overlapping)
            and all(p["stale_reads"] == 0 for p in overlapping)),
        # R=W=1 under partition: the cut-off replica missed writes it
        # never learns about, and keeps serving them stale.
        "r1w1_staleness": (
            bool(weakest)
            and all(p["stale_reads"] > 0 for p in weakest)),
    }
    payload = {
        "sweep": sweep.to_dict(),
        "points": points,
        "pins": pins,
        "ok": all(pins.values()),
    }
    return stamp(payload, sweep)


def render_sweep(payload: dict) -> str:
    """Human-readable sweep table plus the pinned conclusion."""
    spec = payload["sweep"]
    lines = [
        f"QUORUM STALENESS SWEEP — {spec['store']} "
        f"N={spec['replication_factor']} on {spec['n_nodes']} nodes, "
        f"fault={spec['fault']} seed={spec['seed']}",
        f"{'R':>3} {'W':>3} {'R+W>N':>6} {'stale':>6} {'frac':>7} "
        f"{'maxlag':>7} {'dur-viol':>9} {'lin-viol':>9}",
    ]
    for p in payload["points"]:
        lines.append(
            f"{p['r']:>3} {p['w']:>3} "
            f"{'yes' if p['quorums_intersect'] else 'no':>6} "
            f"{p['stale_reads']:>6} {p['stale_fraction']:>7.3f} "
            f"{p['max_lag']:>7} {p['durability_violations']:>9} "
            f"{p['linearizability_violations']:>9}")
    pins = payload["pins"]
    lines.append(
        f"pins: R+W>N zero stale reads: "
        f"{'HOLDS' if pins['overlap_zero_stale'] else 'FAILS'}; "
        f"R=W=1 measurable staleness under partition: "
        f"{'HOLDS' if pins['r1w1_staleness'] else 'FAILS'}")
    return "\n".join(lines)
