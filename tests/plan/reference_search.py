"""The unpruned search: ``analytical_frontier``'s oracle.

Moved here unchanged from ``repro.plan.search``, where nothing but
``test_search_properties.py`` used it.
"""

from __future__ import annotations

from repro.plan.hardware import HARDWARE_PROFILES, HardwareProfile
from repro.plan.model import modeled_capacity
from repro.plan.search import Candidate
from repro.plan.spec import LoadSpec
from repro.stores.registry import STORE_NAMES, store_class
from repro.ycsb.runner import PAPER_RECORDS_PER_NODE

__all__ = ["exhaustive_pick"]


def exhaustive_pick(spec: LoadSpec,
                    stores: tuple[str, ...] = STORE_NAMES,
                    profiles: tuple[HardwareProfile, ...] | None = None,
                    records_per_node: int = 20_000,
                    paper_records_per_node: int = PAPER_RECORDS_PER_NODE,
                    max_nodes: int | None = None,
                    ) -> Candidate | None:
    """The cheapest analytically feasible candidate, found the slow way.

    Evaluates *every* (store, hardware, node count) point with no
    pruning — the oracle the property tests hold ``analytical_frontier``
    against.  Ties break exactly like the frontier ordering.
    """
    if profiles is None:
        profiles = tuple(HARDWARE_PROFILES.values())
    required = spec.required_ops_per_s
    best: Candidate | None = None

    def better(a: Candidate, b: Candidate | None) -> bool:
        if b is None:
            return True
        return ((a.cost, a.n_nodes, a.store, a.hardware.name)
                < (b.cost, b.n_nodes, b.store, b.hardware.name))

    for store_name in stores:
        cls = store_class(store_name)
        if spec.workload.has_scans and not cls.supports_scans:
            continue
        for hardware in profiles:
            ceiling = hardware.max_nodes
            if max_nodes is not None:
                ceiling = min(ceiling, max_nodes)
            for n_nodes in range(1, ceiling + 1):
                modeled = modeled_capacity(
                    store_name, hardware, n_nodes, spec.workload,
                    records_per_node, paper_records_per_node)
                if modeled.ops_per_s < required:
                    continue
                candidate = Candidate(store_name, hardware, n_nodes)
                if better(candidate, best):
                    best = candidate
    return best
