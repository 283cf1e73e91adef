"""History checkers: durability, session guarantees, staleness.

Each checker is a pure function over the recorded operation history
(:class:`~repro.audit.history.OpRecord` rows) and returns a JSON-ready
report dict with an ``ok`` flag and the violating operations spelled
out — an auditor's finding, not just a boolean.
"""

from __future__ import annotations

import bisect
from typing import Callable, Iterable, Optional

from repro.audit.history import PHASE_RUN, PHASE_VERIFY, WRITES, OpRecord

__all__ = ["check_durability", "check_sessions", "check_staleness"]


def check_durability(records: Iterable[OpRecord],
                     excused: Optional[Callable[[str], Optional[str]]] = None
                     ) -> dict:
    """Every acked write must be readable after faults heal.

    For each key with at least one acknowledged run-phase write, the
    best post-heal verification read must observe a version >= the
    highest acked version.  A shortfall (or a verify read that could
    not complete at all) is a **violation** — unless ``excused`` maps
    the key to a declared-loss reason from the chaos controller's
    manifest, in which case it is reported as a *declared loss* (data
    the schedule destroyed by design, e.g. a client-sharded shard whose
    node never came back).
    """
    acked: dict[str, int] = {}
    for record in records:
        if (record.op in WRITES and record.ok
                and record.phase == PHASE_RUN
                and record.version is not None):
            if record.version > acked.get(record.key, 0):
                acked[record.key] = record.version
    observed: dict[str, int] = {}
    read_errors: dict[str, str] = {}
    verified: set[str] = set()
    for record in records:
        if record.phase != PHASE_VERIFY or record.op != "read":
            continue
        if record.ok:
            verified.add(record.key)
            version = record.version or 0
            if version > observed.get(record.key, -1):
                observed[record.key] = version
        else:
            read_errors.setdefault(record.key, record.error or "unknown")

    violations: list[dict] = []
    declared: list[dict] = []
    unchecked: list[str] = []
    for key in sorted(acked):
        expected = acked[key]
        if key not in verified and key not in read_errors:
            unchecked.append(key)
            continue
        seen = observed.get(key)
        if seen is not None and seen >= expected:
            continue
        finding = {
            "key": key,
            "expected_version": expected,
            "observed_version": seen,
            "read_error": read_errors.get(key),
        }
        reason = excused(key) if excused is not None else None
        if reason:
            finding["reason"] = reason
            declared.append(finding)
        else:
            violations.append(finding)
    return {
        "acked_keys": len(acked),
        "verified_keys": len(verified | set(read_errors)),
        "unchecked_keys": unchecked,
        "violations": violations,
        "declared_losses": declared,
        "ok": not violations,
    }


def check_sessions(records: Iterable[OpRecord]) -> dict:
    """Per-session guarantees: read-your-writes and monotonic reads.

    Sessions are sequential (closed-loop), so invocation order *is* the
    session order.  A read must observe at least the highest version the
    same session previously got acknowledged for that key
    (read-your-writes), and at least the version the session's previous
    read of that key observed (monotonic reads).
    """
    ryw: list[dict] = []
    monotonic: list[dict] = []
    last_write: dict[tuple[int, str], int] = {}
    last_read: dict[tuple[int, str], int] = {}
    for record in sorted(records, key=lambda r: r.index):
        slot = (record.session, record.key)
        if record.op in WRITES and record.ok and record.version is not None:
            if record.version > last_write.get(slot, 0):
                last_write[slot] = record.version
        elif record.op == "read" and record.ok:
            version = record.version or 0
            wrote = last_write.get(slot)
            if wrote is not None and version < wrote:
                ryw.append({
                    "session": record.session, "key": record.key,
                    "t": record.t_ack, "observed": version,
                    "written": wrote,
                })
            previous = last_read.get(slot)
            if previous is not None and version < previous:
                monotonic.append({
                    "session": record.session, "key": record.key,
                    "t": record.t_ack, "observed": version,
                    "previous": previous,
                })
            last_read[slot] = version
    return {
        "read_your_writes": ryw,
        "monotonic_reads": monotonic,
        "ok": not ryw and not monotonic,
    }


def check_staleness(records: Iterable[OpRecord]) -> dict:
    """Version lag of successful reads behind the latest acked write.

    A read invoked at time ``t`` is *stale* when the version it observed
    is below the highest version acknowledged before ``t`` for that key
    (writes concurrent with the read never count against it).  Reported
    as a distribution — this is a measurement, not a pass/fail check:
    quorum sweeps pin it to zero for ``R+W>N`` and nonzero at
    ``R=W=1`` under partition.
    """
    ordered = sorted(records, key=lambda r: r.index)
    acked_by_key: dict[str, list[tuple[float, int]]] = {}
    for record in ordered:
        if (record.op in WRITES and record.ok
                and record.phase == PHASE_RUN
                and record.version is not None):
            acked_by_key.setdefault(record.key, []).append(
                (record.t_ack, record.version))
    # Running max over ack time so a lookup is one bisect.
    for timeline in acked_by_key.values():
        timeline.sort()
        best = 0
        for i, (t_ack, version) in enumerate(timeline):
            best = max(best, version)
            timeline[i] = (t_ack, best)

    def latest_before(key: str, t: float) -> int:
        timeline = acked_by_key.get(key)
        if not timeline:
            return 0
        pos = bisect.bisect_left(timeline, (t, -1))
        return timeline[pos - 1][1] if pos else 0

    per_phase = {PHASE_RUN: {"reads": 0, "stale_reads": 0},
                 PHASE_VERIFY: {"reads": 0, "stale_reads": 0}}
    lags: list[int] = []
    for record in ordered:
        if record.op != "read" or not record.ok:
            continue
        latest = latest_before(record.key, record.t_invoke)
        lag = max(0, latest - (record.version or 0))
        bucket = per_phase.setdefault(
            record.phase, {"reads": 0, "stale_reads": 0})
        bucket["reads"] += 1
        if lag > 0:
            bucket["stale_reads"] += 1
            lags.append(lag)
    reads = sum(b["reads"] for b in per_phase.values())
    stale = len(lags)
    return {
        "reads": reads,
        "stale_reads": stale,
        "stale_fraction": (stale / reads) if reads else 0.0,
        "max_lag": max(lags) if lags else 0,
        "mean_lag": (sum(lags) / stale) if stale else 0.0,
        "per_phase": per_phase,
    }
