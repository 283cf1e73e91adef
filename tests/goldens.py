"""The one way a test compares a value against a committed golden file.

A golden is a JSON file of nested sections; a test names the file, the
path of keys down to its entry and the value it observed.  Regenerate
after an *intentional* change with the one switch, on the tests whose
entries should move and nothing wider::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest <those tests>

which rewrites each visited entry and skips the test.  (The serialisation
golden regenerates from its module instead; see
``tests/test_serialisation_golden.py``.)
"""

import json
import os
import re
from pathlib import Path

import pytest

__all__ = ["check_golden", "versionless"]

SWITCH = "REPRO_UPDATE_GOLDENS"


def versionless(text: str) -> str:
    """``text`` with a provenance stamp's package version masked, so a
    version bump alone never moves a digest."""
    return re.sub(r'"package_version": "[^"]*"',
                  '"package_version": "<version>"', text)


def check_golden(path: Path, keys: tuple, observed, indent: int = 2) -> None:
    """Assert ``observed`` equals the entry at ``keys`` in ``path``.

    ``indent`` is the file's own, so a regenerated entry is a one-entry
    diff.
    """
    golden = json.loads(path.read_text()) if path.is_file() else {}
    *sections, name = keys
    if os.environ.get(SWITCH) == "1":
        node = golden
        for section in sections:
            node = node.setdefault(section, {})
        node[name] = observed
        path.write_text(
            json.dumps(golden, indent=indent, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {'/'.join(keys)} in {path.name}")
    node = golden
    for key in keys:
        assert isinstance(node, dict) and key in node, (
            f"no golden for {'/'.join(keys)} in {path.name}; "
            f"run with {SWITCH}=1")
        node = node[key]
    assert observed == node, (
        f"{'/'.join(keys)} diverged from its golden in {path.name}")
