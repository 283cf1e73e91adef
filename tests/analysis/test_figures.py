"""Unit tests for figure builders."""

import hashlib
from pathlib import Path

import pytest

from repro.analysis.cache import ResultCache
from repro.analysis.export import figure_to_json
from repro.analysis.figures import (
    BenchProfile,
    FIGURES,
    FigureData,
    PAPER_PROFILE,
    QUICK_PROFILE,
    active_profile,
    expand_figure_ids,
    fig17,
    table1,
)
from repro.ycsb.runner import run_config

from tests.goldens import check_golden, versionless


TINY = BenchProfile(name="tiny", scales=(1, 2), records_per_node=1500,
                    cluster_d_records=1500,
                    cluster_d_paper_records=150_000,
                    cluster_d_nodes=2, bounded_nodes=2,
                    bounded_levels=(0.6,), measured_ops=300,
                    warmup_ops=60)


class TestRegistry:
    def test_all_paper_artefacts_present(self):
        expected = {"table1"} | {f"fig{i}" for i in range(3, 21)}
        assert set(FIGURES) == expected

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError, match="unknown figure"):
            expand_figure_ids(["fig3", "fig99"])

    def test_profiles(self):
        assert QUICK_PROFILE.scales == (1, 4, 8)
        assert PAPER_PROFILE.scales == (1, 2, 4, 8, 12)

    def test_active_profile_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "paper")
        assert active_profile() is PAPER_PROFILE
        monkeypatch.delenv("REPRO_BENCH_PROFILE")
        assert active_profile() is QUICK_PROFILE
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "bogus")
        with pytest.raises(ValueError):
            active_profile()


class TestTable1:
    def test_sampled_mix_matches_nominal(self):
        data = table1(ResultCache(run_config), TINY)
        assert data.figure_id == "table1"
        for name, read in (("R", 95.0), ("RW", 50.0), ("W", 1.0),
                           ("RS", 47.0), ("RSW", 25.0)):
            assert data.series[f"{name}/read"][0][1] == read
            sampled = data.series[f"{name}/read/sampled"][0][1]
            assert sampled == pytest.approx(read, abs=1.5)


class TestFig17:
    def test_disk_usage_series(self):
        data = fig17(ResultCache(run_config), TINY)
        assert set(data.series) == {"cassandra", "hbase", "voldemort",
                                    "mysql", "raw data"}
        raw = data.series_value("raw data", 12.0)
        assert raw == pytest.approx(75 * 10e6 * 12 / 2**30, rel=0.05)
        # linear growth
        for name in data.series:
            one = data.series_value(name, 1.0)
            twelve = data.series_value(name, 12.0)
            assert twelve == pytest.approx(12 * one, rel=0.01)


class TestFigureData:
    def test_series_value_lookup(self):
        data = FigureData("x", "t", "x", "y",
                          series={"a": [(1.0, 10.0), (2.0, 20.0)]})
        assert data.series_value("a", 2.0) == 20.0
        assert data.series_value("a", 3.0) is None
        assert data.max_x() == 2.0


@pytest.mark.slow
class TestSweepBuilder:
    """One real (tiny) sweep exercising the shared-cache machinery."""

    def test_fig3_reuses_runs_for_fig4_and_fig5(self):
        cache = ResultCache(run_config)
        throughput = FIGURES["fig3"](cache, TINY)
        misses_after_fig3 = cache.misses
        read = FIGURES["fig4"](cache, TINY)
        write = FIGURES["fig5"](cache, TINY)
        assert cache.misses == misses_after_fig3  # all hits
        for data in (throughput, read, write):
            assert set(data.series) == {"cassandra", "hbase", "voldemort",
                                        "redis", "voltdb", "mysql"}
            for points in data.series.values():
                assert [x for x, __ in points] == [1.0, 2.0]
                assert all(y > 0 for __, y in points)

    def test_scan_figures_skip_voldemort(self):
        data = FIGURES["fig12"](ResultCache(run_config), TINY)
        assert "voldemort" not in data.series
        assert "cassandra" in data.series


@pytest.fixture(scope="module")
def tiny_sweeps():
    """One live memo for the whole module: 19 artefacts, ~70 points."""
    return ResultCache(run_config)


@pytest.mark.slow
@pytest.mark.parametrize("figure_id", list(FIGURES))
def test_figure_json_bytes_are_pinned(figure_id, tiny_sweeps):
    """Title, labels, series order and every float of every artefact:
    how the builders are written is free to change, this is not."""
    text = versionless(figure_to_json(FIGURES[figure_id](tiny_sweeps, TINY)))
    check_golden(Path(__file__).parents[1] / "cli_golden.json",
                 ("figure_json", figure_id),
                 hashlib.sha256(text.encode()).hexdigest())
