"""Closed-loop client threads.

Each thread models one YCSB worker: it owns a store connection, draws
operations from the workload mix, executes them synchronously, and
records latencies.  Threads run "as intensively as possible" (Section 3)
unless a :class:`~repro.ycsb.throttle.Throttle` bounds the offered load.

With an overload policy active, each operation additionally carries a
deadline (stamped into the kernel's per-process ``sim.deadline`` slot so
the whole stack can abandon late work), and retries are governed by a
shared retry budget and circuit breaker — see :func:`attempt_op` for the
exact semantics and error classification.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.keyspace import format_key
from repro.sim.faults import (DeadlineExceededError, FaultError,
                              OverloadError)
from repro.storage.record import RecordSchema
from repro.stores.base import OpError, OpType, RetryPolicy, StoreSession
from repro.ycsb.generator import KeySequence, generate_record
from repro.ycsb.stats import RunStats
from repro.ycsb.throttle import Throttle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ycsb.runner import Deployment

__all__ = ["RunControl", "ClientThread", "attempt_op", "draw_operation"]


def attempt_op(session: StoreSession, op: OpType, key: str, row,
               scan_length: int, retry: RetryPolicy, *,
               deadline: Optional[float] = None, budget=None, breaker=None):
    """Process body: execute one operation under the full retry policy.

    Returns ``(error, kind, result)``: ``result`` is what the store
    returned (``None`` on failure) and ``kind`` classifies a failure (see
    :data:`repro.ycsb.stats.ERROR_KINDS`):

    * :class:`OpError` / a ``False`` result → ``"store"``, never retried;
    * :class:`DeadlineExceededError` → ``"deadline"``, never retried
      (the op is already late);
    * :class:`OverloadError` → ``"overload"``; other
      :class:`FaultError` → ``"fault"``.  Both retry with backoff, but
      only while attempts remain, the deadline has not passed, the
      circuit breaker allows the target node, and the retry budget has a
      token — each gate failing surfaces the triggering error's kind.

    A ``deadline`` (absolute simulated time) is stamped into the
    kernel's per-process ``sim.deadline`` slot for the operation's
    lifetime, so the whole stack can abandon late work, and cleared on
    the way out.

    Shared by the closed-loop :class:`ClientThread`, the open-loop
    overload runner and the audit sessions so all report identical
    semantics.
    """
    sim = session.store.sim
    if deadline is not None:
        sim.deadline = deadline
    attempt = 1
    try:
        while True:
            try:
                result = yield from session.execute(op, key, row, scan_length)
                if result is False:
                    return True, "store", None
                return False, None, result
            except OpError:
                # Semantic failure (e.g. Redis OOM): retrying cannot help.
                return True, "store", None
            except DeadlineExceededError:
                return True, "deadline", None
            except FaultError as exc:
                kind = ("overload" if isinstance(exc, OverloadError)
                        else "fault")
                if attempt >= retry.max_attempts:
                    return True, kind, None
                if deadline is not None and sim.now >= deadline:
                    return True, "deadline", None
                if breaker is not None and not breaker.allow_retry(exc):
                    return True, kind, None
                if budget is not None and not budget.try_spend(sim.now):
                    return True, kind, None
                # The driver reconnects with backoff, inside the timed call.
                backoff = retry.backoff_for(attempt)
                attempt += 1
                if backoff > 0:
                    yield sim.timeout(backoff)
    finally:
        if deadline is not None:
            sim.deadline = None


def draw_operation(op_table, rng: random.Random, chooser,
                   sequence: KeySequence, schema: RecordSchema,
                   scan_length: int):
    """Draw one operation and its arguments: ``(op, key, row, scan_length)``.

    Drawn once, before any attempt: a retry re-issues the *same*
    operation, it does not burn a fresh key from the generator streams.
    Reads, scans and deletes need only the key, so no record is built;
    a write carries the row ``generate_record`` made.
    """
    roll = rng.random()
    op = op_table[-1][0]
    for candidate, threshold in op_table:
        if roll <= threshold:
            op = candidate
            break
    if op is OpType.INSERT:
        number = sequence.take()
    elif op is OpType.UPDATE:
        number = chooser.next_record_number()
    else:
        key = format_key(chooser.next_record_number())
        return op, key, None, scan_length if op is OpType.SCAN else 0
    key, row = generate_record(number, schema)
    return op, key, row, 0


@dataclass
class RunControl:
    """Shared run state: warm-up accounting and the stop condition."""

    warmup_ops: int
    measured_ops: int
    completed: int = 0
    measuring: bool = False
    done: bool = False

    def __post_init__(self):
        # With no warm-up the measurement window opens immediately.
        if self.warmup_ops <= 0:
            self.measuring = True

    def note_completion(self, stats: RunStats, now: float) -> None:
        """Count one finished operation; manage the measurement window."""
        self.completed += 1
        if not self.measuring and self.completed >= self.warmup_ops:
            self.measuring = True
            stats.started_at = now
        if (self.measuring
                and self.completed >= self.warmup_ops + self.measured_ops
                and not self.done):
            self.done = True
            stats.finished_at = now


class ClientThread:
    """One synchronous workload-generator thread.

    It draws and runs each operation through its
    :class:`~repro.ycsb.runner.Deployment` (``draw``, ``attempt``), which
    holds the point's workload, key sequence, retry policy and overload
    protections.

    ``watchers`` are passive observers — the obs layer, an audit
    recorder, any object with a ``note_op`` hook.  Each completed
    operation is offered to every watcher once, warm-up included, with
    ``measured`` telling whether it fell inside the measurement window.
    A watcher never yields and costs nothing on the simulated clock, so
    a watched run is op-for-op identical to a bare one.  The tracer is
    the simulator's (``sim.tracer``), if one is attached.
    """

    def __init__(self, session: StoreSession, deployment: Deployment,
                 chooser, stats: RunStats, control: RunControl,
                 rng: random.Random, throttle: Throttle | None = None,
                 watchers=()):
        self.session = session
        self.deployment = deployment
        self.chooser = chooser
        self.stats = stats
        self.control = control
        self.rng = rng
        self.throttle = throttle
        self.watchers = watchers

    def run(self):
        """Process body: issue operations until the run is complete."""
        deployment = self.deployment
        sim = deployment.sim
        tracer = sim.tracer
        while not self.control.done:
            if self.throttle is not None:
                yield from self.throttle.acquire()
                if self.control.done:
                    break
            op, key, row, scan_length = deployment.draw(self.rng,
                                                        self.chooser)
            # Workload-loop and driver dispatch work happens before YCSB
            # starts the operation timer.
            yield from self.session.store.dispatch_cpu(self.session.client)
            started = sim.now
            # Sample traces only inside the measurement window, so the
            # trace set matches the latencies the histograms report.
            trace = None
            if (tracer is not None and self.control.measuring
                    and not self.control.done and tracer.should_sample()):
                trace = tracer.begin(op.value, key, self.session.index)
            error, kind, __ = yield from deployment.attempt(
                self.session, op, key, row, scan_length, started)
            # Not kept: a scan's rows would otherwise live in this frame
            # until the thread's next operation completes.
            del __
            if trace is not None:
                tracer.complete(trace, error, kind)
            self.stats.note_op(sim.now, error)
            measured = self.control.measuring and not self.control.done
            if measured:
                self.stats.record(op, sim.now - started, error, kind)
                if trace is not None:
                    self.stats.note_trace(trace)
            for watcher in self.watchers:
                watcher.note_op(self.session.index, op.value, key, started,
                                sim.now, error, kind, trace, measured)
            self.control.note_completion(self.stats, sim.now)
