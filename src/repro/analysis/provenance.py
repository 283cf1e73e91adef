"""Run-metadata provenance for exported artefacts.

Every exported result JSON (figures, sweeps, chaos timelines, metrics
reports) carries a ``provenance`` stamp — the package version, the seed,
and a content hash of the configuration that produced it — so artefacts
are traceable across runs and refactors.

The stamp deliberately contains **no wall-clock timestamp**: exports
must stay byte-identical across two runs with the same seed, which is
the repo-wide determinism contract.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Optional

import repro

__all__ = ["config_fingerprint", "provenance", "stamp"]


def _jsonable(obj: Any) -> Any:
    """A deterministic JSON-ready projection of a config object.

    Dataclasses flatten to ``{type, fields...}``; mappings sort by key;
    an enum member is its value (a crash is not a restart); callables
    reduce to their qualified name so two processes building the same
    config hash identically.
    """
    if isinstance(obj, enum.Enum):
        return _jsonable(obj.value)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: _jsonable(getattr(obj, f.name))
                  for f in dataclasses.fields(obj)}
        return {"__type__": type(obj).__name__, **fields}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(),
                                                        key=lambda kv:
                                                        str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    qualname = getattr(obj, "__qualname__", None)
    if qualname is not None:
        return f"<{qualname}>"
    return f"<{type(obj).__name__}>"


def config_fingerprint(config: Any) -> str:
    """A short, stable sha256 hex digest of a configuration object."""
    canonical = json.dumps(_jsonable(config), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def provenance(config: Any = None,
               seed: Optional[int] = None) -> dict:
    """The stamp dict: package version + config hash + seed.

    ``seed`` defaults to the config's own ``seed`` attribute when it has
    one, so call sites holding a full config need not repeat it.
    """
    if seed is None:
        seed = getattr(config, "seed", None)
    out = {"package_version": repro.__version__}
    if config is not None:
        out["config_hash"] = config_fingerprint(config)
    if seed is not None:
        out["seed"] = seed
    return out


def stamp(payload: dict, config: Any = None,
          seed: Optional[int] = None) -> dict:
    """Return ``payload`` with a ``provenance`` key added (in place)."""
    payload["provenance"] = provenance(config, seed)
    return payload
