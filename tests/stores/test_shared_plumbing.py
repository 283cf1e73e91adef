"""House style for ``src/repro/stores``: the plumbing every store shares
is written once, and an ``ast`` walk keeps the copies from coming back.

* A slot on an executor channel is held through
  ``Resource.hold`` — no store claims one with ``.request()`` or reads
  ``deadline_exceeded()`` itself (that is how four drifting copies of
  "deadline, span, claim, wait span, deadline, body, release" arose).
* Connection-pool gates are built by ``Store._arm_admission`` only, so
  a server added by ``grow`` is armed by the code that armed the rest.
* ``grow`` / ``shrink`` and the reshard loop ``_migrate`` live in
  ``base.py``; a store supplies hooks, not another envelope.

An exception goes in an allow-list below with its reason, the way
``tests/sim/test_events_per_op.py`` lists the NIC holds.
"""

import ast
from pathlib import Path

import repro.stores

STORES = Path(repro.stores.__file__).parent

#: ``(file, function)`` -> why it may claim a slot or read the deadline
#: without going through ``Resource.hold``.
DIRECT_CLAIM_ALLOWED: dict = {}
#: file -> why it may construct an ``AdmissionGate``.
GATE_CONSTRUCTION_ALLOWED = {
    "base.py": "Store._arm_admission is the one wiring",
}
#: file -> why it may define ``grow`` / ``shrink`` / ``_migrate``.
ENVELOPE_ALLOWED = {
    "base.py": "the one topology envelope and reshard loop",
}
ENVELOPE = {"grow", "shrink", "_migrate"}


def _walk(tree: ast.AST, function: str = "<module>"):
    """``(innermost function, node)`` for every node, in source order."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield function, node
            yield from _walk(node, node.name)
        else:
            yield function, node
            yield from _walk(node, function)


def _findings(source: str):
    """``(kind, function, line)`` of everything the rules look at."""
    for function, node in _walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name in ENVELOPE:
            yield "envelope", node.name, node.lineno
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Attribute) and not node.args \
                and callee.attr in ("request", "deadline_exceeded"):
            yield "claim", function, node.lineno
        name = callee.attr if isinstance(callee, ast.Attribute) \
            else getattr(callee, "id", None)
        if name == "AdmissionGate":
            yield "gate", function, node.lineno


def test_stores_share_the_hold_the_gates_and_the_envelope():
    seen = {"claim": set(), "gate": set(), "envelope": set()}
    for path in sorted(STORES.glob("*.py")):
        for kind, function, line in _findings(path.read_text()):
            where = f"stores/{path.name}:{line} ({function})"
            if kind == "claim":
                site = (path.name, function)
                assert site in DIRECT_CLAIM_ALLOWED, (
                    f"{where} claims a slot or reads the deadline itself; "
                    "hold the channel with Resource.hold")
                seen[kind].add(site)
            elif kind == "gate":
                assert path.name in GATE_CONSTRUCTION_ALLOWED, (
                    f"{where} builds an AdmissionGate; declare "
                    "Store.connection_pool and let the base wire it")
                seen[kind].add(path.name)
            else:
                assert path.name in ENVELOPE_ALLOWED, (
                    f"{where} defines {function}; implement the topology "
                    "hooks of Store instead")
                seen[kind].add(path.name)
    assert seen["claim"] == set(DIRECT_CLAIM_ALLOWED), "stale allow-list"
    assert seen["gate"] == set(GATE_CONSTRUCTION_ALLOWED), "stale allow-list"
    assert seen["envelope"] == set(ENVELOPE_ALLOWED), "stale allow-list"
    reasons = [*DIRECT_CLAIM_ALLOWED.values(),
               *GATE_CONSTRUCTION_ALLOWED.values(),
               *ENVELOPE_ALLOWED.values()]
    assert all(reason.strip() for reason in reasons)


def test_the_guard_sees_the_idioms():
    source = (
        "class Copy(Store):\n"
        "    def grow(self, node):\n"
        "        self._gates.append(AdmissionGate(4, 'pool'))\n"
        "    def _held(self, channel):\n"
        "        if self.sim.deadline_exceeded():\n"
        "            raise DeadlineExceededError('late')\n"
        "        request = channel.request()\n"
        "        yield request\n"
        "    def fine(self, channel, key):\n"
        "        size = self.request_bytes(key)\n"
        "        yield from channel.hold(self.body(size))\n")
    assert list(_findings(source)) == [
        ("envelope", "grow", 2), ("gate", "grow", 3),
        ("claim", "_held", 5), ("claim", "_held", 7)]
