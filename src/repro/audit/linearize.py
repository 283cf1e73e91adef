"""Per-key register linearizability.

The checker decides whether one key's operation history is linearizable
as an atomic read/write register: is there a total order of the
operations, consistent with real time (an op that completed before
another was invoked must come first), in which every read returns the
value of the latest preceding write?

The search is the Wing–Gong algorithm with the two standard
Porcupine-style refinements:

* **windowed decomposition** — the history is split at quiescent points
  (instants where no successful operation is pending); each window is
  searched independently, carrying forward the set of feasible
  ``(register value, still-pending failed writes)`` frontiers, so cost
  scales with per-window concurrency rather than history length;
* **memoized state search with a budget** — within a window, states
  ``(remaining ops, pending failed writes, value)`` are explored once;
  exceeding the exploration budget yields the *inconclusive* verdict
  ``None`` rather than an unbounded search.

Failed writes (no response observed) are *optional*: they may take
effect at any point after their invocation — including in a later
window — or never.  Failed reads constrain nothing and are dropped.

The oracle is beside the tests (``brute_force_linearizable`` in
``tests/audit/reference_linearize.py``): a factorial enumeration over
failed-write subsets and interleavings, feasible only for tiny
histories, which the Hypothesis suite checks the search against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.audit.history import WRITES

__all__ = ["RegisterOp", "check_linearizable", "history_to_register_ops"]


@dataclass(frozen=True)
class RegisterOp:
    """One operation on a single-key register."""

    #: Invocation time.
    inv: float
    #: Response time; ``math.inf`` when no response was observed.
    resp: float
    is_write: bool
    #: Written value, or the value the read returned.
    value: int
    #: ``False`` = no response observed (the op may or may not have
    #: taken effect).
    ok: bool = True

    def __post_init__(self) -> None:
        if self.resp < self.inv:
            raise ValueError(
                f"response at {self.resp} precedes invocation at {self.inv}")
        if self.ok and math.isinf(self.resp):
            raise ValueError("a successful op needs a finite response time")


class _BudgetExceeded(Exception):
    pass


def _windows(fixed: list[RegisterOp]) -> list[list[RegisterOp]]:
    """Split successful ops at quiescent points (sorted by invocation)."""
    windows: list[list[RegisterOp]] = []
    current: list[RegisterOp] = []
    frontier = -math.inf
    for op in fixed:
        # Strictly after the frontier: ``resp == inv`` means the ops are
        # concurrent (real-time precedence is strict), so an equal-time
        # op must stay in the same window.
        if current and op.inv > frontier:
            windows.append(current)
            current = []
        current.append(op)
        frontier = max(frontier, op.resp)
    if current:
        windows.append(current)
    return windows


def _search_window(window: list[RegisterOp],
                   floating: list[RegisterOp],
                   start_states: set[tuple[int, frozenset]],
                   budget: int, counter: list[int]) -> set:
    """All feasible ``(value, pending-floats)`` frontiers after ``window``.

    ``start_states`` are the frontiers feasible before the window; the
    returned set is empty iff no linearization of the window's ops
    exists from any of them.
    """
    memo: dict = {}

    def candidates_min_resp(remaining: frozenset) -> float:
        return min(window[i].resp for i in remaining)

    def rec(remaining: frozenset, pending: frozenset, value: int):
        counter[0] += 1
        if counter[0] > budget:
            raise _BudgetExceeded
        state = (remaining, pending, value)
        cached = memo.get(state)
        if cached is not None:
            return cached
        if not remaining:
            result = frozenset({(value, pending)})
            memo[state] = result
            return result
        out: set = set()
        # Wing–Gong candidate rule: an op may linearize next iff no
        # other remaining (successful) op responded before it was
        # invoked.  ``inv <= min(resp)`` is exactly that test, and
        # failed writes (resp = inf) never block anyone.
        min_resp = candidates_min_resp(remaining)
        for i in remaining:
            op = window[i]
            if op.inv > min_resp:
                continue
            if op.is_write:
                out |= rec(remaining - {i}, pending, op.value)
            elif op.value == value:
                out |= rec(remaining - {i}, pending, value)
        for fid in pending:
            if floating[fid].inv > min_resp:
                continue
            out |= rec(remaining, pending - {fid}, floating[fid].value)
        result = frozenset(out)
        memo[state] = result
        return result

    all_ids = frozenset(range(len(window)))
    frontier: set = set()
    for value, pending in start_states:
        frontier |= rec(all_ids, pending, value)
    return frontier


def check_linearizable(ops: Iterable[RegisterOp],
                       budget: int = 200_000) -> Optional[bool]:
    """Linearizability verdict: ``True``/``False``, or ``None`` when the
    exploration budget ran out (inconclusive — never a false verdict).
    The register starts at 0, the version of an absent key.
    """
    fixed = sorted((o for o in ops if o.ok),
                   key=lambda o: (o.inv, o.resp))
    # Failed reads constrain nothing; failed writes are optional ops.
    floating = [o for o in ops if not o.ok and o.is_write]
    states: set[tuple[int, frozenset]] = {
        (0, frozenset(range(len(floating))))}
    counter = [0]
    try:
        for window in _windows(fixed):
            states = _search_window(window, floating, states,
                                    budget, counter)
            if not states:
                return False
    except _BudgetExceeded:
        return None
    return True


def history_to_register_ops(records, key: Optional[str] = None
                            ) -> list[RegisterOp]:
    """Project :class:`~repro.audit.history.OpRecord` rows for one key
    onto register ops (reads of an absent key observe the initial 0)."""
    ops: list[RegisterOp] = []
    for record in records:
        if key is not None and record.key != key:
            continue
        if record.op in WRITES:
            if record.version is None:
                continue
            ops.append(RegisterOp(
                inv=record.t_invoke,
                resp=record.t_ack if record.ok else math.inf,
                is_write=True, value=record.version, ok=record.ok))
        elif record.op == "read" and record.ok:
            ops.append(RegisterOp(
                inv=record.t_invoke, resp=record.t_ack,
                is_write=False, value=record.version or 0, ok=True))
    return ops
