"""Byte-determinism of the observability artefacts.

The acceptance bar for the self-APM layer: two runs of the same seeded
chaos + overload scenario must produce byte-identical incident
exports — alert log, exemplar sets, flight-recorder dumps, traces,
Prometheus snapshot and CSVs all included.
"""

from repro.obs import run_obs_scenario

from tests.obs.test_harness import incident_scenario


class TestByteDeterminism:
    def test_full_export_is_byte_identical(self):
        first = run_obs_scenario(incident_scenario())
        second = run_obs_scenario(incident_scenario())
        assert first.to_dict() == second.to_dict()

    def test_different_seed_differs(self):
        """Sanity: determinism comes from the seed, not from constants."""
        first = run_obs_scenario(incident_scenario(seed=42))
        other = run_obs_scenario(incident_scenario(seed=7))
        assert first.to_dict() != other.to_dict()
