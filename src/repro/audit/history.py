"""The operation-history model the audit checkers consume.

A :class:`HistoryRecorder` logs one :class:`OpRecord` per client
operation: invocation time, acknowledgement time, outcome, and the
*version* written or observed.  Versions are assigned by the audit
driver (a global monotone counter encoded into the record payload), so
every store is checkable through its ordinary client API without any
store-side cooperation.

The recorder is purely observational: it never yields, never touches
simulated resources, and costs nothing on the simulated clock — the
passivity test pins that an audited run is op-for-op identical to a
bare one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional

from repro.stores.base import OpType

__all__ = ["OpRecord", "HistoryRecorder", "WRITES"]

#: The ops that write, by :class:`~repro.stores.base.OpType` value: what
#: every checker and view counts as a write.
WRITES = frozenset(op.value for op in (OpType.INSERT, OpType.UPDATE,
                                       OpType.DELETE))

#: Phase markers: the chaos-overlapped workload vs. the post-heal
#: verification reads.
PHASE_RUN = "run"
PHASE_VERIFY = "verify"


@dataclass(frozen=True)
class OpRecord:
    """One completed client operation, as the auditor saw it."""

    #: Recorder-wide sequence number: taken at invocation by
    #: :meth:`HistoryRecorder.begin`, at acknowledgement by
    #: :meth:`HistoryRecorder.note_op`; it breaks invocation-time ties.
    index: int
    #: Client session the operation ran on.
    session: int
    #: An :class:`~repro.stores.base.OpType` value (``"insert"``,
    #: ``"read"``, ...); the writes are :data:`WRITES`.
    op: str
    key: str
    t_invoke: float
    t_ack: float
    #: Whether the client got a successful acknowledgement.
    ok: bool
    #: Error kind on failure (``"fault"``, ``"store"``, ...), else None.
    error: Optional[str] = None
    #: Driver-assigned version: the version *written* (for writes, known
    #: at invocation) or *observed* (for reads; 0 = key absent/initial).
    version: Optional[int] = None
    #: ``"run"`` for workload ops, ``"verify"`` for post-heal reads.
    phase: str = PHASE_RUN


class HistoryRecorder:
    """Passive invocation/ack log feeding the audit checkers."""

    def __init__(self, sim):
        self.sim = sim
        self.records: list[OpRecord] = []
        self._pending: dict[int, OpRecord] = {}
        self._next_index = 0

    def __len__(self) -> int:
        return len(self.records)

    # -- recording -------------------------------------------------------------

    def begin(self, session: int, op: str, key: str,
              version: Optional[int] = None,
              phase: str = PHASE_RUN) -> int:
        """Log an invocation; returns the token :meth:`complete` takes."""
        token = self._next_index
        self._next_index += 1
        self._pending[token] = OpRecord(
            index=token, session=session, op=op, key=key,
            t_invoke=self.sim.now, t_ack=self.sim.now,
            ok=False, version=version, phase=phase,
        )
        return token

    def complete(self, token: int, ok: bool,
                 error: Optional[str] = None,
                 version: Optional[int] = None) -> OpRecord:
        """Log the acknowledgement (or failure) of invocation ``token``."""
        partial = self._pending.pop(token)
        record = replace(
            partial, t_ack=self.sim.now, ok=ok, error=error,
            version=partial.version if version is None else version,
        )
        self.records.append(record)
        return record

    def note_op(self, session: int, op: str, key: str, t_invoke: float,
                t_ack: float, error: bool, kind: Optional[str], trace,
                measured: bool) -> OpRecord:
        """The load drivers' watcher hook: one completed operation,
        warm-up included, numbered as it is acked."""
        record = OpRecord(
            index=self._next_index, session=session, op=op, key=key,
            t_invoke=t_invoke, t_ack=t_ack, ok=not error, error=kind,
        )
        self._next_index += 1
        self.records.append(record)
        return record

    # -- views -----------------------------------------------------------------

    def in_order(self) -> list[OpRecord]:
        """Records sorted by invocation (the checkers' canonical order).

        By invocation time, then index: :meth:`note_op` numbers a record
        when it is acked, so on a load driver's history the index alone
        is ack order.
        """
        return sorted(self.records, key=lambda r: (r.t_invoke, r.index))

    def per_key(self) -> dict[str, list[OpRecord]]:
        out: dict[str, list[OpRecord]] = {}
        for record in self.in_order():
            out.setdefault(record.key, []).append(record)
        return out

    def per_session(self) -> dict[int, list[OpRecord]]:
        out: dict[int, list[OpRecord]] = {}
        for record in self.in_order():
            out.setdefault(record.session, []).append(record)
        return out

    def acked_writes(self) -> list[OpRecord]:
        return [r for r in self.in_order()
                if r.op in WRITES and r.ok and r.phase == PHASE_RUN]

    def to_payload(self) -> dict:
        """JSON-ready summary (the full log is test fodder, not export)."""
        records = self.in_order()
        by_kind: dict[str, int] = {}
        for record in records:
            if not record.ok:
                kind = record.error or "unknown"
                by_kind[kind] = by_kind.get(kind, 0) + 1
        return {
            "ops": len(records),
            "writes_acked": sum(1 for r in records
                                if r.op in WRITES and r.ok),
            "reads_ok": sum(1 for r in records
                            if r.op == "read" and r.ok),
            "failures_by_kind": dict(sorted(by_kind.items())),
        }


def max_acked_version(records: Iterable[OpRecord], key: str) -> int:
    """Highest version acked for ``key`` by run-phase writes (0 = none)."""
    best = 0
    for record in records:
        if (record.op in WRITES and record.ok and record.key == key
                and record.phase == PHASE_RUN
                and record.version is not None):
            best = max(best, record.version)
    return best
