"""The chaos-audit harness: workload + faults + history checkers.

:func:`run_audit_scenario` drives a closed-loop, version-encoded
workload against one store while a :class:`FaultSchedule` plays out,
records every operation in a :class:`~repro.audit.history
.HistoryRecorder`, runs a post-heal verification pass through the
ordinary client read path, and feeds the resulting history to the four
checkers.  The outcome is an :class:`AuditReport` — provenance-stamped,
byte-deterministic under a fixed seed.

Design choices that make the history checkable through any store's
stock client API:

* the driver assigns a **global monotone version** to every write and
  encodes it into the record payload (``field0``), so a read's payload
  *is* its observed version — no store cooperation needed;
* every key has a **single writer session** (keys are partitioned
  across sessions), so per-key write order is total and staleness is
  well defined; reads range over all keys, so sessions do observe each
  other;
* verification reads go through the **normal client path at the
  configured consistency** — the auditor checks the contract the
  deployment actually offers, and reconciles misses against the chaos
  controller's declared-loss manifest.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, fields
from typing import Optional

from repro.analysis.provenance import stamp
from repro.audit.checkers import (check_durability, check_sessions,
                                  check_staleness)
from repro.audit.history import PHASE_RUN, PHASE_VERIFY, HistoryRecorder
from repro.audit.linearize import check_linearizable, history_to_register_ops
from repro.faults.chaos import ChaosController
from repro.faults.schedule import FaultSchedule
from repro.obs.recorder import FlightRecorder
from repro.sim.cluster import CLUSTER_M, Cluster
from repro.storage.record import RecordSchema
from repro.stores.base import OpType
from repro.stores.registry import create_store
from repro.ycsb.client import attempt_op

__all__ = ["AUDIT_SCHEMA", "AuditReport", "AuditScenario",
           "run_audit_scenario", "standard_schedule"]

#: Small records keep audit runs fast: 12-byte keys, one 10-byte field
#: that carries the zero-padded write version.
AUDIT_SCHEMA = RecordSchema(key_length=12, field_count=1, field_length=10)

#: The standard chaos vocabulary ``apmbench audit --fault`` accepts.
STANDARD_FAULTS = ("none", "crash", "crash_hard", "crash_late",
                   "partition", "slow_disk", "flaky_nic", "zombie",
                   "combo")


def standard_schedule(name: str, servers: list[str], clients: list[str],
                      duration_s: float) -> FaultSchedule:
    """A named chaos plan scaled to the run's horizon.

    Faults strike at 30% of the horizon and heal at 70%, so every run
    has a pristine lead-in, a faulted middle, and a healed tail the
    verification phase extends.  ``crash_hard`` never restarts — the
    declared-loss path.
    """
    if name not in STANDARD_FAULTS:
        raise ValueError(f"unknown fault scenario {name!r}; "
                         f"choose from {', '.join(STANDARD_FAULTS)}")
    t_fault = 0.3 * duration_s
    span = 0.4 * duration_s
    schedule = FaultSchedule()
    if name == "none":
        return schedule
    victim = servers[-1]
    if name == "crash":
        return schedule.crash(victim, at=t_fault, restart_after=span)
    if name == "crash_hard":
        return schedule.crash(victim, at=t_fault)
    if name == "crash_late":
        # Restart only after the workload's last paced op: nothing the
        # workload writes post-restart can paper over replication debt,
        # so recovery mechanisms (hinted handoff) carry the whole
        # durability burden — the schedule the mutation smoke test uses.
        return schedule.crash(victim, at=t_fault,
                              restart_after=1.05 * duration_s - t_fault)
    if name == "partition":
        others = [n for n in servers if n != victim] + list(clients)
        return schedule.partition([[victim], others], at=t_fault,
                                  heal_after=span)
    if name == "slow_disk":
        return schedule.slow_disk(victim, at=t_fault, factor=8.0,
                                  duration=span)
    if name == "flaky_nic":
        return schedule.flaky_nic(victim, at=t_fault, loss=0.05,
                                  jitter_s=0.002, duration=span)
    if name == "zombie":
        return schedule.zombie(victim, at=t_fault, slowdown=25.0,
                               duration=span)
    # combo: a crash riding alongside both gray failures.
    return (schedule
            .crash(victim, at=t_fault, restart_after=span)
            .slow_disk(servers[0], at=t_fault, factor=8.0, duration=span)
            .flaky_nic(servers[len(servers) // 2], at=t_fault,
                       loss=0.03, jitter_s=0.001, duration=span))


@dataclass(frozen=True)
class AuditScenario:
    """Everything that defines one audited chaos run (all primitives,
    so scenarios travel across process boundaries for sweeps)."""

    store: str
    n_nodes: int = 3
    n_sessions: int = 4
    n_keys: int = 12
    ops_per_session: int = 80
    write_fraction: float = 0.5
    #: Pacing: session ``s`` issues op ``i`` no earlier than
    #: ``i * op_gap_s`` — fixes the horizon the fault times scale to.
    op_gap_s: float = 0.02
    seed: int = 42
    #: One of :data:`STANDARD_FAULTS`.
    fault: str = "crash"
    #: Replication knobs (Cassandra / Voldemort only; others need 1).
    replication_factor: int = 1
    required_writes: int = 1
    required_reads: int = 1
    #: Wing–Gong exploration budget per key.
    linearize_budget: int = 200_000

    def __post_init__(self):
        # N/R/W the store cannot take are rejected here, not mid-run.
        _store_kwargs(self)

    @property
    def duration_s(self) -> float:
        return self.ops_per_session * self.op_gap_s

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class AuditReport:
    """One audited run: the checker verdicts and their evidence."""

    scenario: AuditScenario
    history: dict
    durability: dict
    sessions: dict
    staleness: dict
    linearizability: dict
    chaos_log: list
    loss_manifest: list
    flight_recorder: dict

    @property
    def ok(self) -> bool:
        """No durability, session, or linearizability violation."""
        return (self.durability["ok"] and self.sessions["ok"]
                and self.linearizability["ok"])

    def to_dict(self) -> dict:
        # Shallow on purpose: ``asdict`` would deep-copy the evidence.
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload.update(scenario=self.scenario.to_dict(), ok=self.ok)
        return stamp(payload, self.scenario)

    def render(self) -> str:
        scenario = self.scenario
        lines = [
            f"CHAOS AUDIT — {scenario.store} n={scenario.n_nodes} "
            f"fault={scenario.fault} "
            f"N/R/W={scenario.replication_factor}/"
            f"{scenario.required_reads}/{scenario.required_writes} "
            f"seed={scenario.seed}",
            f"history: {self.history['ops']} ops, "
            f"{self.history['writes_acked']} writes acked, "
            f"{self.history['reads_ok']} reads ok, failures "
            f"{self.history['failures_by_kind'] or '{}'}",
        ]
        dur = self.durability
        lines.append(
            f"durability: {'OK' if dur['ok'] else 'VIOLATED'} — "
            f"{dur['acked_keys']} acked keys, "
            f"{len(dur['violations'])} violation(s), "
            f"{len(dur['declared_losses'])} declared loss(es)")
        for finding in dur["violations"]:
            lines.append(
                f"  LOST {finding['key']}: acked v{finding['expected_version']}, "
                f"read back {finding['observed_version']} "
                f"(err={finding['read_error']})")
        for finding in dur["declared_losses"]:
            lines.append(
                f"  declared {finding['key']}: {finding['reason']}")
        ses = self.sessions
        lines.append(
            f"sessions: {'OK' if ses['ok'] else 'VIOLATED'} — "
            f"{len(ses['read_your_writes'])} read-your-writes, "
            f"{len(ses['monotonic_reads'])} monotonic-read violation(s)")
        lin = self.linearizability
        lines.append(
            f"linearizability: {'OK' if lin['ok'] else 'VIOLATED'} — "
            f"{lin['keys_checked']} keys checked, "
            f"violations {lin['violations'] or 'none'}, "
            f"inconclusive {lin['inconclusive'] or 'none'}")
        stale = self.staleness
        lines.append(
            f"staleness: {stale['stale_reads']}/{stale['reads']} stale "
            f"reads (max lag {stale['max_lag']}, "
            f"mean {stale['mean_lag']:.2f} versions)")
        if self.chaos_log:
            lines.append("chaos: " + "; ".join(
                f"t={t:.2f} {what}" for t, what in self.chaos_log))
        if self.flight_recorder["dumps"]:
            lines.append(
                f"flight recorder: {len(self.flight_recorder['dumps'])} "
                f"dump(s) on audit violations")
        lines.append(f"verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _cassandra_level(acks: int, replication_factor: int) -> str:
    if acks == 1:
        return "one"
    if acks == replication_factor:
        return "all"
    if acks == replication_factor // 2 + 1:
        return "quorum"
    raise ValueError(
        f"Cassandra consistency levels express 1, quorum "
        f"({replication_factor // 2 + 1}) or all ({replication_factor}) "
        f"acks at RF={replication_factor}, not {acks}")


def _store_kwargs(scenario: AuditScenario) -> dict:
    """The scenario's N/R/W as the store's own constructor arguments."""
    n, w, r = (scenario.replication_factor, scenario.required_writes,
               scenario.required_reads)
    if scenario.store == "cassandra":
        return {"replication_factor": n,
                "consistency_level": _cassandra_level(w, n),
                "read_consistency": _cassandra_level(r, n)}
    if scenario.store == "voldemort":
        return {"replication_factor": n, "required_writes": w,
                "required_reads": r}
    if (n, w, r) != (1, 1, 1):
        raise ValueError(
            f"{scenario.store} has no replication knobs; "
            f"leave N/R/W at 1")
    if scenario.store == "hbase":
        # Deferred client flushing acks writes that only exist in the
        # client buffer — YCSB's throughput mode trades away exactly
        # the contract this audit checks, so the audit drives HBase
        # with autoflush on.
        return {"client_buffering": False}
    return {}


class _AuditRun:
    """One scenario, end to end: workload, chaos, verification, checks.

    Deliberately not a :class:`~repro.ycsb.runner.Deployment`: the audit
    runs on an unscaled Cluster M with one client machine and loads
    nothing — routing it through the shared assembly would make that code
    branch on its caller.
    """

    def __init__(self, scenario: AuditScenario):
        self.scenario = scenario
        self.cluster = Cluster(CLUSTER_M, scenario.n_nodes, n_clients=1)
        self.store = create_store(scenario.store, self.cluster,
                                  schema=AUDIT_SCHEMA,
                                  **_store_kwargs(scenario))
        self.schedule = standard_schedule(
            scenario.fault,
            [node.name for node in self.cluster.servers],
            [node.name for node in self.cluster.clients],
            scenario.duration_s)
        self.chaos = ChaosController(self.cluster, self.schedule)
        self.chaos.subscribe(self.store)
        self.recorder = HistoryRecorder(self.cluster.sim)
        self.flight = FlightRecorder(self.cluster.sim, capacity=512)
        self.chaos.recorder = self.flight
        self.keys = [f"key-{i:08d}" for i in range(scenario.n_keys)]
        self._version_clock = 0

    # -- workload --------------------------------------------------------------

    def _next_version(self) -> int:
        self._version_clock += 1
        return self._version_clock

    @staticmethod
    def _decode(row) -> int:
        if row is None:
            return 0
        return int(row[0])  # field0

    def _read(self, session, key: str, retry, phase: str = PHASE_RUN):
        """One recorded read; its payload *is* the observed version."""
        token = self.recorder.begin(session.index, OpType.READ.value, key,
                                    phase=phase)
        error, kind, row = yield from attempt_op(
            session, OpType.READ, key, None, 0, retry)
        self.recorder.complete(
            token, not error, error=kind,
            version=None if error else self._decode(row))

    def _session_proc(self, sid: int):
        scenario = self.scenario
        sim = self.cluster.sim
        rng = random.Random(f"audit:{scenario.seed}:{sid}")
        client = self.cluster.clients[sid % len(self.cluster.clients)]
        session = self.store.session(client, sid)
        retry = self.store.retry_policy()
        # Single writer per key: session s owns every n_sessions-th key.
        own = self.keys[sid::scenario.n_sessions]
        for i in range(scenario.ops_per_session):
            slot = i * scenario.op_gap_s
            if sim.now < slot:
                yield sim.timeout(slot - sim.now)
            if own and rng.random() < scenario.write_fraction:
                key = own[rng.randrange(len(own))]
                version = self._next_version()
                row = (f"{version:010d}",)
                token = self.recorder.begin(sid, OpType.INSERT.value, key,
                                            version=version)
                error, kind, __ = yield from attempt_op(
                    session, OpType.INSERT, key, row, 0, retry)
                self.recorder.complete(token, not error, error=kind)
            else:
                key = self.keys[rng.randrange(len(self.keys))]
                yield from self._read(session, key, retry)

    def _verify_proc(self):
        """Post-heal verification reads through the normal client path."""
        sid = self.scenario.n_sessions  # a fresh, dedicated session
        session = self.store.session(self.cluster.clients[0], sid)
        retry = self.store.retry_policy()
        for key in self.keys:
            yield from self._read(session, key, retry, PHASE_VERIFY)

    # -- placement (declared-loss reconciliation) ------------------------------

    def _excuse(self, key: str) -> Optional[str]:
        """The declared loss, if any, of a server holding ``key``."""
        homes = {self.cluster.servers[index].name
                 for index in self.store.homes(key)}
        for entry in self.chaos.loss_manifest:
            if entry["node"] in homes:
                return entry["reason"]
        return None

    # -- execution -------------------------------------------------------------

    def execute(self) -> AuditReport:
        sim = self.cluster.sim
        self.chaos.start()
        for sid in range(self.scenario.n_sessions):
            sim.process(self._session_proc(sid), name=f"audit-s{sid}")
        sim.run(until=None)
        # Everything scheduled has healed (or is a permanent,
        # declared loss); the verification phase reads every key back.
        sim.process(self._verify_proc(), name="audit-verify")
        sim.run(until=None)

        records = self.recorder.in_order()
        durability = check_durability(records, excused=self._excuse)
        sessions = check_sessions(records)
        staleness = check_staleness(records)
        linearizability = self._check_linearizability(records)
        for checker, report in (("durability", durability),
                                ("sessions", sessions),
                                ("linearizability", linearizability)):
            if not report["ok"]:
                self.flight.dump(f"audit-{checker}",
                                 reason=f"{checker} violation")
        return AuditReport(
            scenario=self.scenario,
            history=self.recorder.to_payload(),
            durability=durability,
            sessions=sessions,
            staleness=staleness,
            linearizability=linearizability,
            chaos_log=[[t, what] for t, what in self.chaos.log],
            loss_manifest=list(self.chaos.loss_manifest),
            flight_recorder=self.flight.to_payload(),
        )

    def _check_linearizability(self, records) -> dict:
        violations: list[str] = []
        inconclusive: list[str] = []
        excused: list[str] = []
        checked = 0
        for key in self.keys:
            ops = history_to_register_ops(records, key)
            if not ops:
                continue
            checked += 1
            verdict = check_linearizable(
                ops, budget=self.scenario.linearize_budget)
            if verdict is None:
                inconclusive.append(key)
            elif not verdict:
                # A key whose only copy was destroyed by design cannot
                # satisfy register semantics; charge it to the manifest.
                if self._excuse(key):
                    excused.append(key)
                else:
                    violations.append(key)
        return {
            "keys_checked": checked,
            "violations": violations,
            "inconclusive": inconclusive,
            "declared_losses": excused,
            "ok": not violations,
        }


def run_audit_scenario(scenario: AuditScenario) -> AuditReport:
    """Execute one audited chaos scenario end to end."""
    return _AuditRun(scenario).execute()
