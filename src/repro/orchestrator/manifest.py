"""Crash-safe run manifests.

A manifest records one orchestrator run: the planned grid (content
hashes), the figures/profile that produced it, and an append-only event
log of point lifecycles.  Two files under the run directory::

    manifest.json   # the plan, written once, atomically
    events.jsonl    # one JSON object per line: started/done/error

The event log is append-only and tolerates a torn final line (the
process was killed mid-write), which is exactly the crash case resume
exists for.  Resume semantics derive from the log *and* the result
store: a point with a ``done`` event (equivalently, a blob in the store)
is skipped; a point with only a ``started`` event was in flight when the
run died and is re-run from scratch.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

__all__ = ["RunManifest", "ManifestMismatchError"]

MANIFEST_FORMAT = 1


class ManifestMismatchError(RuntimeError):
    """A resume was attempted against a different grid than the original."""


class RunManifest:
    """The on-disk record of one (possibly interrupted) run."""

    def __init__(self, run_dir: str | Path):
        self.run_dir = Path(run_dir)
        self.manifest_path = self.run_dir / "manifest.json"
        self.events_path = self.run_dir / "events.jsonl"
        self.meta: dict = {}

    # -- creation and loading -----------------------------------------------

    @classmethod
    def create(cls, run_dir: str | Path, figures: list[str],
               profile_name: str, jobs: int,
               point_hashes: list[str]) -> "RunManifest":
        """Start a fresh run record (truncates any previous log)."""
        manifest = cls(run_dir)
        manifest.run_dir.mkdir(parents=True, exist_ok=True)
        manifest.meta = {
            "format": MANIFEST_FORMAT,
            "figures": list(figures),
            "profile": profile_name,
            "jobs": jobs,
            "points": list(point_hashes),
        }
        tmp = manifest.manifest_path.with_name(
            f"manifest.json.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(manifest.meta, indent=2, sort_keys=True))
        os.replace(tmp, manifest.manifest_path)
        manifest.events_path.write_text("")
        return manifest

    @classmethod
    def load(cls, run_dir: str | Path) -> "RunManifest":
        """Open an existing run record (for resume or inspection)."""
        manifest = cls(run_dir)
        manifest.meta = json.loads(manifest.manifest_path.read_text())
        if manifest.meta.get("format") != MANIFEST_FORMAT:
            raise ManifestMismatchError(
                f"manifest at {manifest.manifest_path} has format "
                f"{manifest.meta.get('format')!r}, expected "
                f"{MANIFEST_FORMAT}")
        return manifest

    @classmethod
    def exists(cls, run_dir: str | Path) -> bool:
        return (Path(run_dir) / "manifest.json").is_file()

    def check_grid(self, figures: list[str], profile_name: str) -> None:
        """Refuse to resume a run planned for a different experiment."""
        if (self.meta.get("figures") != list(figures)
                or self.meta.get("profile") != profile_name):
            raise ManifestMismatchError(
                f"run at {self.run_dir} was planned for figures="
                f"{self.meta.get('figures')} profile="
                f"{self.meta.get('profile')!r}; requested figures="
                f"{list(figures)} profile={profile_name!r}. "
                "Use a fresh run directory (or drop --resume).")

    # -- the event log ------------------------------------------------------

    def _append(self, event: dict) -> None:
        with self.events_path.open("a") as handle:
            handle.write(json.dumps(event, sort_keys=True) + "\n")
            handle.flush()

    def record_start(self, content_hash: str) -> None:
        self._append({"event": "started", "point": content_hash})

    def record_done(self, content_hash: str, wall_s: float) -> None:
        self._append({"event": "done", "point": content_hash,
                      "wall_s": round(wall_s, 6)})

    def record_error(self, content_hash: str, message: str) -> None:
        self._append({"event": "error", "point": content_hash,
                      "message": message})

    def extend_plan(self, point_hashes: list[str]) -> None:
        """Note later-wave points (result-dependent ones) in the log."""
        self._append({"event": "planned", "points": list(point_hashes)})

    def events(self) -> list[dict]:
        """Every well-formed event, tolerating a torn final line."""
        try:
            lines = self.events_path.read_text().splitlines()
        except FileNotFoundError:
            return []
        events = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn write from a killed run
        return events

    # -- derived state ------------------------------------------------------

    def completed(self) -> dict[str, float]:
        """content hash -> wall seconds for every finished point."""
        done = {}
        for event in self.events():
            if event.get("event") == "done":
                done[event["point"]] = event.get("wall_s", 0.0)
        return done

    def in_flight(self) -> set[str]:
        """Points started but never finished (the crash casualties)."""
        started: set[str] = set()
        finished: set[str] = set()
        for event in self.events():
            if event.get("event") == "started":
                started.add(event["point"])
            elif event.get("event") in ("done", "error"):
                finished.add(event["point"])
        return started - finished

    def total_wall_s(self) -> float:
        return sum(self.completed().values())

    def point_count(self) -> int:
        planned = set(self.meta.get("points", []))
        for event in self.events():
            if event.get("event") == "planned":
                planned.update(event["points"])
        return len(planned)

    def summary(self) -> Optional[str]:
        """One-line progress summary, or ``None`` for an empty log."""
        done = self.completed()
        if not done and not self.events():
            return None
        slowest = max(done.values(), default=0.0)
        return (f"{len(done)}/{self.point_count()} points done, "
                f"{self.total_wall_s():.1f}s total compute, "
                f"slowest point {slowest:.1f}s")
