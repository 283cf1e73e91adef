"""Property suite: the windowed Wing-Gong search against the factorial
oracle, on generated tiny histories.

Every generated history is checked twice: the verdict must match the
brute-force oracle and must be identical on a second run (the checker
is pure; memoization must not leak state between calls).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.linearize import RegisterOp, check_linearizable

from tests.audit.reference_linearize import brute_force_linearizable

# Small integer grids keep the factorial oracle tractable while still
# generating overlap, containment, and cross-window shapes.
_times = st.integers(min_value=0, max_value=8)
_values = st.integers(min_value=1, max_value=3)


@st.composite
def register_ops(draw):
    n_ops = draw(st.integers(min_value=0, max_value=5))
    ops = []
    for _ in range(n_ops):
        inv = draw(_times)
        is_write = draw(st.booleans())
        failed = is_write and draw(st.booleans())
        if failed:
            resp = math.inf
        else:
            resp = inv + draw(st.integers(min_value=0, max_value=3))
        value = draw(_values) if is_write else \
            draw(st.integers(min_value=0, max_value=3))
        ops.append(RegisterOp(inv=float(inv), resp=float(resp),
                              is_write=is_write, value=value,
                              ok=not failed))
    return ops


@settings(max_examples=300, deadline=None)
@given(register_ops())
def test_search_matches_brute_force_oracle(ops):
    verdict = check_linearizable(ops)
    # Tiny histories never exhaust the default budget.
    assert verdict is not None
    assert verdict is brute_force_linearizable(ops)


@settings(max_examples=150, deadline=None)
@given(register_ops())
def test_verdict_is_deterministic(ops):
    assert check_linearizable(ops) is check_linearizable(ops)
