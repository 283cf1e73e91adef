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
* What a replicated store does whoever fans out — wait for ``k_of`` the
  replicas, keep the write clock and the per-replica version map — is
  ``Store.fan_out`` and its neighbours: no store module calls ``k_of``
  or defines ``next_write_version`` / ``_apply_versioned_read`` /
  ``node_is_up`` (five fan-outs and two clocks had drifted apart).
* "Are we inside a sampled trace?" is asked by ``Store.annotate`` (and
  ``StoreSession.execute``, which picks its traced twin): no store
  module compares ``sim.tracer`` with ``None``.

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
#: file -> why it may wait on ``k_of``, define the version bookkeeping,
#: or test for an active trace.
QUORUM_ALLOWED = {
    "base.py": "Store.fan_out is the one per-replica spawn + quorum wait",
}
BOOKKEEPING_ALLOWED = {
    "base.py": "the one write clock, version map read and liveness check",
}
TRACE_GUARD_ALLOWED = {
    "base.py": "Store.annotate, and StoreSession.execute choosing its "
               "traced twin",
}
BOOKKEEPING = {"next_write_version", "_apply_versioned_read", "node_is_up"}


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
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in ENVELOPE:
                yield "envelope", node.name, node.lineno
            if node.name in BOOKKEEPING:
                yield "bookkeeping", node.name, node.lineno
        if isinstance(node, ast.Compare) \
                and isinstance(node.left, ast.Attribute) \
                and node.left.attr == "tracer" \
                and any(isinstance(other, ast.Constant)
                        and other.value is None
                        for other in node.comparators):
            yield "trace-guard", function, node.lineno
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
        if name == "k_of":
            yield "quorum", function, node.lineno


#: kind -> (allow-list, what to do instead), for the rules keyed by file.
BY_FILE = {
    "gate": (GATE_CONSTRUCTION_ALLOWED,
             "builds an AdmissionGate; declare Store.connection_pool and "
             "let the base wire it"),
    "envelope": (ENVELOPE_ALLOWED,
                 "defines a topology envelope; implement the topology "
                 "hooks of Store instead"),
    "quorum": (QUORUM_ALLOWED,
               "waits on k_of itself; start the replicas with "
               "Store.fan_out and yield its quorum"),
    "bookkeeping": (BOOKKEEPING_ALLOWED,
                    "defines version or liveness bookkeeping a Store "
                    "already has"),
    "trace-guard": (TRACE_GUARD_ALLOWED,
                    "tests for an active trace itself; call "
                    "Store.annotate, or open a repro.trace.span"),
}


def test_stores_share_the_hold_the_gates_and_the_envelope():
    seen = {"claim": set(), **{kind: set() for kind in BY_FILE}}
    for path in sorted(STORES.glob("*.py")):
        for kind, function, line in _findings(path.read_text()):
            where = f"stores/{path.name}:{line} ({function})"
            if kind == "claim":
                site = (path.name, function)
                assert site in DIRECT_CLAIM_ALLOWED, (
                    f"{where} claims a slot or reads the deadline itself; "
                    "hold the channel with Resource.hold")
                seen[kind].add(site)
            else:
                allowed, instead = BY_FILE[kind]
                assert path.name in allowed, f"{where} {instead}"
                seen[kind].add(path.name)
    assert seen["claim"] == set(DIRECT_CLAIM_ALLOWED), "stale allow-list"
    reasons = list(DIRECT_CLAIM_ALLOWED.values())
    for kind, (allowed, __) in BY_FILE.items():
        assert seen[kind] == set(allowed), f"stale {kind} allow-list"
        reasons.extend(allowed.values())
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
        "        yield from channel.hold(self.body(size))\n"
        "    def node_is_up(self, index):\n"
        "        return self.cluster.servers[index].up\n"
        "    def _fan(self, acks, needed):\n"
        "        sim = self.sim\n"
        "        if sim.tracer is not None and sim.context is not None:\n"
        "            sim.tracer.annotate(acks=needed)\n"
        "        yield sim.k_of(acks, needed)\n"
        "    def also_fine(self, replicas, k, key):\n"
        "        self.annotate(replicas=replicas)\n"
        "        acks, quorum = self.fan_out(self.client, replicas, k,\n"
        "                                    10, 20, self._apply_read, key)\n"
        "        yield quorum\n")
    assert list(_findings(source)) == [
        ("envelope", "grow", 2), ("gate", "grow", 3),
        ("claim", "_held", 5), ("claim", "_held", 7),
        ("bookkeeping", "node_is_up", 12),
        ("trace-guard", "_fan", 16), ("quorum", "_fan", 18)]


def test_client_sharded_sessions_inherit_their_point_operations():
    """Hash in the client, one round trip, ``_apply_*`` at the far end:
    ``StoreSession`` is that path, so a client-sharded session that
    spells ``read`` / ``insert`` / ``delete`` again is a copy."""
    from repro.stores.mysql import MySQLSession
    from repro.stores.redis import RedisSession

    for session in (RedisSession, MySQLSession):
        assert not {"read", "insert", "delete"} & vars(session).keys()
