"""The factorial search: ``check_linearizable``'s oracle.

Moved here unchanged from ``repro.audit.linearize``, where nothing but
``test_linearize.py`` and ``test_linearize_property.py`` used it.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from repro.audit.linearize import RegisterOp

__all__ = ["brute_force_linearizable"]


def brute_force_linearizable(ops: Iterable[RegisterOp],
                             initial: int = 0) -> bool:
    """Exhaustive oracle: every failed-write subset x every interleaving.

    Factorial in history size — callers keep histories under ~7 ops.
    """
    all_ops = list(ops)
    fixed = [o for o in all_ops if o.ok]
    floating = [o for o in all_ops if not o.ok and o.is_write]
    for take in range(len(floating) + 1):
        for subset in itertools.combinations(floating, take):
            chosen = fixed + list(subset)
            for order in itertools.permutations(range(len(chosen))):
                if not _respects_real_time(chosen, order):
                    continue
                value = initial
                feasible = True
                for index in order:
                    op = chosen[index]
                    if op.is_write:
                        value = op.value
                    elif op.value != value:
                        feasible = False
                        break
                if feasible:
                    return True
    return False


def _respects_real_time(chosen: list[RegisterOp],
                        order: tuple[int, ...]) -> bool:
    for pos_a, a_id in enumerate(order):
        inv_a = chosen[a_id].inv
        for b_id in order[pos_a + 1:]:
            if chosen[b_id].resp < inv_a:
                return False
    return True
