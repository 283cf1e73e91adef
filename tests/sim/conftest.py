"""Fixtures shared by the simulation-layer tests."""

import pytest

from repro.sim.cluster import Cluster


@pytest.fixture
def clusters(monkeypatch):
    """Every ``Cluster`` built during the test, oldest first — the way
    to a run's kernel (``clusters[-1].sim``) behind ``run_benchmark``."""
    seen = []
    init = Cluster.__init__

    def cluster_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        seen.append(self)
    monkeypatch.setattr(Cluster, "__init__", cluster_init)
    return seen
