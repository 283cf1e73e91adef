"""Unit tests for ControlPolicy validation and serialisation."""

import pytest

from repro.control import ControlDecision, ControlPolicy


class TestValidation:
    def test_defaults_are_valid(self):
        ControlPolicy()

    def test_tick_must_be_positive(self):
        with pytest.raises(ValueError):
            ControlPolicy(tick_s=0.0)

    def test_dead_band_ordering(self):
        with pytest.raises(ValueError):
            ControlPolicy(scale_out_pressure=0.6, scale_in_pressure=0.6)

    def test_fleet_bounds_ordering(self):
        with pytest.raises(ValueError):
            ControlPolicy(min_nodes=4, max_nodes=2)

    def test_min_nodes_at_least_one(self):
        with pytest.raises(ValueError):
            ControlPolicy(min_nodes=0)

    def test_sustain_at_least_one(self):
        with pytest.raises(ValueError):
            ControlPolicy(sustain_ticks=0)


class TestSerialisation:
    def test_decision_to_dict(self):
        decision = ControlDecision(
            t=1.25, action="scale_out", node="server-4",
            reason="cpu pressure 0.91 >= 0.85 for 2 ticks",
            pressure=0.91, bottleneck="cpu", n_active=4)
        payload = decision.to_dict()
        assert payload["t"] == 1.25
        assert payload["action"] == "scale_out"
        assert payload["node"] == "server-4"
        assert payload["n_active"] == 4
