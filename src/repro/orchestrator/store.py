"""Content-addressed on-disk benchmark result store.

One JSON blob per :class:`~repro.ycsb.runner.BenchmarkConfig`, addressed
by the config's sha256 :meth:`content_hash` — the same identity the
in-memory :class:`~repro.analysis.cache.ResultCache` keys on, so the two
layers can never disagree about what "the same point" means.

Layout::

    <root>/objects/<hh>/<hash>.json     # hh = first two hash chars

Each blob carries a ``provenance`` stamp (package version, config hash,
seed) and contains no wall-clock state, so a stored point is
byte-identical across the runs that produce it.  Writes are atomic
(temp file + ``os.replace``), which makes the store safe under
concurrent writers and crash-safe: a killed run leaves either a complete
blob or, at worst, a stray ``*.tmp`` file beside it that no read looks
at.  The blobs are the whole record of a run, so re-running a killed
command is its resume.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator, Optional

import repro
from repro.analysis.provenance import stamp
from repro.orchestrator.serialize import (UnportableResultError,
                                          result_from_dict, result_to_dict)
from repro.ycsb.runner import BenchmarkConfig, BenchmarkResult

__all__ = ["ResultStore"]


class ResultStore:
    """Shared, persistent result storage under a root directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.disk_hits = 0
        self.writes = 0

    # -- addressing ---------------------------------------------------------

    def path_for(self, config: BenchmarkConfig) -> Path:
        """Where the blob for ``config`` lives (whether or not it exists)."""
        return self._path(config.content_hash())

    def _path(self, content_hash: str) -> Path:
        return (self.root / "objects" / content_hash[:2]
                / f"{content_hash}.json")

    def contains(self, config: BenchmarkConfig) -> bool:
        """Whether a blob this package version wrote for ``config`` is on
        disk.  Answers from the provenance stamp alone; the result
        itself is decoded only by :meth:`get`."""
        return self._document(config) is not None

    # -- read/write ---------------------------------------------------------

    def get(self, config: BenchmarkConfig) -> Optional[BenchmarkResult]:
        """The stored result for ``config``, or ``None``.

        Unreadable or corrupt blobs (a truncated file from an unclean
        copy, a format from a different package era) count as misses —
        the orchestrator simply re-runs the point.  So does a blob
        stamped by another ``package_version``: the key is the config
        hash alone, and simulated statistics may move between versions,
        so only this version's own results are served; the re-run's
        :meth:`put` overwrites the stale blob atomically.
        """
        document = self._document(config)
        if document is None:
            return None
        try:
            result = result_from_dict(document["result"])
        except (KeyError, TypeError, ValueError):
            return None
        self.disk_hits += 1
        return result

    def _document(self, config: BenchmarkConfig) -> Optional[dict]:
        """The parsed blob for ``config`` if this version stamped it."""
        try:
            text = self.path_for(config).read_text()
        except FileNotFoundError:
            return None
        try:
            document = json.loads(text)
            if (document["provenance"]["package_version"]
                    != repro.__version__):
                return None
        except (json.JSONDecodeError, KeyError, TypeError):
            return None
        return document

    def put(self, result: BenchmarkResult) -> Optional[Path]:
        """Persist ``result``; returns the blob path, or ``None``.

        Results that cannot round-trip (chaos runs, traced runs, runs
        with telemetry attached) are not written.  ``execute_grid``
        never gets this far with one: its worker entry serialises the
        result first and raises ``UnportableResultError``.
        """
        try:
            payload = result_to_dict(result)
        except UnportableResultError:
            return None
        path = self.path_for(result.config)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = stamp({"result": payload}, result.config)
        text = json.dumps(document, indent=2, sort_keys=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(text)
        os.replace(tmp, path)
        self.writes += 1
        return path

    # -- inventory ----------------------------------------------------------

    def keys(self) -> Iterator[str]:
        """Content hashes of every stored result."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return
        for blob in sorted(objects.glob("*/*.json")):
            yield blob.stem

    def __len__(self) -> int:
        return sum(1 for __ in self.keys())
