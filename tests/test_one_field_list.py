"""House style for the records of ``src/repro``: a dataclass names its
fields once, in the dataclass.

* A record's ``to_dict`` is ``dataclasses.asdict(self)``, or — where a
  nested object has a ``to_dict`` of its own, or the evidence is too big
  to deep-copy — a shallow pass over ``dataclasses.fields(self)`` with
  that entry set explicitly.  No method of a dataclass spells three or
  more ``"f": self.f`` entries of its own fields in one dict literal:
  that second copy of the field list is what a new field gets forgotten
  in (21 methods held 165 such entries).
* ``BenchmarkConfig.to_dict`` / ``from_dict`` iterate the fields.  The
  only field names they spell are the three values ``from_dict`` has to
  rebuild from plain dicts; the two fingerprint-only fields are named in
  ``OPAQUE_FIELDS``.  A field added to the dataclass is then in the
  content key, the content hash and the wire form by construction
  (``tests/orchestrator/test_serialize.py`` adds one and looks).

An exception goes in an allow-list below with its reason, the way
``tests/stores/test_shared_plumbing.py`` lists its own.
"""

import ast
from pathlib import Path

import repro
from repro.ycsb import runner

from tests.stores.test_shared_plumbing import _walk

SRC = Path(repro.__file__).parent

#: The fewest ``"f": self.f`` entries in one dict literal that count as
#: a copy of the field list.
COPY_THRESHOLD = 3

#: ``(file, class, method)`` -> why it may list its own fields.
FIELD_LIST_ALLOWED = {
    ("plan/model.py", "ModeledCapacity", "row"):
        "a report row, not the record: it rounds, renames ops_per_s to "
        "modeled_ops_per_s and leaves the three per-node bounds out",
}
#: ``BenchmarkConfig`` field -> why ``from_dict`` names it.
NESTED_REBUILDS = {
    "workload": "a Workload, rebuilt from its asdict form",
    "cluster_spec": "a ClusterSpec holding a NodeSpec, a DiskSpec and a "
                    "NetworkSpec, rebuilt from its asdict form",
    "overload": "an optional OverloadPolicy, rebuilt by its from_dict",
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        if getattr(target, "id", getattr(target, "attr", None)) \
                == "dataclass":
            return True
    return False


def _own_fields(cls: ast.ClassDef) -> set:
    return {statement.target.id for statement in cls.body
            if isinstance(statement, ast.AnnAssign)
            and isinstance(statement.target, ast.Name)}


def _identity_pairs(literal: ast.Dict, fields: set) -> int:
    """How many entries of ``literal`` read ``"f": self.f`` for a field."""
    return sum(
        isinstance(key, ast.Constant) and key.value in fields
        and isinstance(value, ast.Attribute) and value.attr == key.value
        and getattr(value.value, "id", None) == "self"
        for key, value in zip(literal.keys, literal.values))


def _findings(source: str):
    """``(class, method, line, pairs)`` of every copied field list."""
    for __, cls in _walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef) or not _is_dataclass(cls):
            continue
        fields = _own_fields(cls)
        for method, node in _walk(cls, "<class body>"):
            if isinstance(node, ast.Dict):
                pairs = _identity_pairs(node, fields)
                if pairs >= COPY_THRESHOLD:
                    yield cls.name, method, node.lineno, pairs


def _spelled_fields(cls: ast.ClassDef, method: str) -> set:
    """The field names ``method`` of ``cls`` has as string literals."""
    fields = _own_fields(cls)
    return {node.value for function, node in _walk(cls)
            if function == method and isinstance(node, ast.Constant)
            and node.value in fields}


def test_no_dataclass_copies_its_field_list():
    seen = set()
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        for cls, method, line, pairs in _findings(path.read_text()):
            assert (name, cls, method) in FIELD_LIST_ALLOWED, (
                f"src/repro/{name}:{line} {cls}.{method} lists {pairs} of "
                "its own fields again; return dataclasses.asdict(self), or "
                "iterate dataclasses.fields(self) and set the nested "
                "entries explicitly")
            seen.add((name, cls, method))
    assert seen == set(FIELD_LIST_ALLOWED), "stale allow-list"
    assert all(reason.strip() for reason in FIELD_LIST_ALLOWED.values())


def test_benchmark_config_names_its_fields_in_the_dataclass_only():
    tree = ast.parse(Path(runner.__file__).read_text())
    config, = (node for __, node in _walk(tree)
               if isinstance(node, ast.ClassDef)
               and node.name == "BenchmarkConfig")
    assert _spelled_fields(config, "to_dict") == set()
    assert _spelled_fields(config, "from_dict") == set(NESTED_REBUILDS)
    assert all(reason.strip() for reason in NESTED_REBUILDS.values())
    assert runner.OPAQUE_FIELDS <= _own_fields(config)
    assert not runner.OPAQUE_FIELDS & set(NESTED_REBUILDS)


def test_the_guard_sees_the_idioms():
    source = (
        "@dataclass(frozen=True)\n"
        "class Policy:\n"
        "    a: int\n"
        "    b: int = 2\n"
        "    c: tuple = ()\n"
        "    def to_dict(self):\n"
        "        return {'a': self.a, 'b': self.b, 'c': list(self.c)}\n"
        "    def row(self):\n"
        "        return {'a': self.a, 'b': self.b, 'c': self.c,\n"
        "                'd': self.d, 'window': {'a': self.a}}\n"
        "    def from_dict(cls, payload):\n"
        "        return cls(a=payload['a'], b=payload['b'])\n"
        "    def fine(self):\n"
        "        return asdict(self)\n"
        "@dataclasses.dataclass\n"
        "class Report:\n"
        "    nodes: tuple\n"
        "    t0: float\n"
        "    t1: float\n"
        "    def to_payload(self):\n"
        "        return {'nodes': [{'x': n.x, 'y': n.y, 'z': n.z}\n"
        "                          for n in self.nodes],\n"
        "                't0': self.t0, 't1': self.t1,\n"
        "                'nodes_again': self.nodes}\n"
        "class Plain:\n"
        "    a: int\n"
        "    b: int\n"
        "    c: int\n"
        "    def to_dict(self):\n"
        "        return {'a': self.a, 'b': self.b, 'c': self.c}\n")
    assert list(_findings(source)) == [("Policy", "row", 9, 3)]
    policy = ast.parse(source).body[0]
    assert _spelled_fields(policy, "from_dict") == {"a", "b"}
    assert _spelled_fields(policy, "fine") == set()
