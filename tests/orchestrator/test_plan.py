"""Grid planning: probing, dedup, cache-awareness, taint deferral."""

import pytest

from repro.analysis.figures import SMOKE_PROFILE, BenchProfile
from repro.analysis.sweep import SweepSpec
from repro.orchestrator.plan import (derive_seed, estimate_cost_units,
                                     plan_figures)
from repro.orchestrator.store import ResultStore
from repro.stores.registry import STORE_NAMES
from repro.ycsb.workload import WORKLOAD_R, WORKLOAD_RS, WORKLOAD_RW

from tests.orchestrator.test_serialize import make_result

TINY = BenchProfile(
    name="tiny", scales=(1, 2), records_per_node=300,
    cluster_d_records=300, cluster_d_nodes=1, bounded_nodes=1,
    bounded_levels=(0.5, 0.9), measured_ops=150, warmup_ops=30,
)


class TestPlanFigures:
    def test_sweep_figures_share_points(self, tmp_path):
        store = ResultStore(tmp_path)
        plan = plan_figures(["fig3", "fig4", "fig5"], TINY, store)
        # One sweep feeds all three figures: 6 stores x 2 scales.
        assert len(plan.missing) == len(STORE_NAMES) * len(TINY.scales)
        assert plan.cached == 0
        assert plan.deferred == 0
        assert not plan.complete

    def test_plan_dedupes_by_content_hash(self, tmp_path):
        plan = plan_figures(["fig3", "fig6", "fig9"], TINY,
                            ResultStore(tmp_path))
        hashes = [c.content_hash() for c in plan.missing]
        assert len(hashes) == len(set(hashes))

    def test_cached_points_are_not_scheduled(self, tmp_path):
        store = ResultStore(tmp_path)
        first = plan_figures(["fig3"], TINY, store)
        done = first.missing[:3]
        for config in done:
            store.put(make_result(config=config))
        second = plan_figures(["fig3"], TINY, store)
        assert len(second.missing) == len(first.missing) - 3
        assert second.cached == 3
        done_hashes = {c.content_hash() for c in done}
        assert all(c.content_hash() not in done_hashes
                   for c in second.missing)

    def test_result_dependent_points_deferred(self, tmp_path):
        """Figures 15/16 derive bounded targets from measured maxima."""
        store = ResultStore(tmp_path)
        plan = plan_figures(["fig15"], TINY, store)
        # Wave 1: only the five base (max-throughput) points.
        assert len(plan.missing) == 5
        assert all(c.target_throughput is None for c in plan.missing)
        assert plan.deferred > 0

    def test_deferred_points_surface_after_base_results(self, tmp_path):
        store = ResultStore(tmp_path)
        first = plan_figures(["fig15"], TINY, store)
        for config in first.missing:
            store.put(make_result(config=config))
        second = plan_figures(["fig15"], TINY, store)
        # Wave 2: bounded points with real targets derived from wave 1.
        assert second.deferred == 0
        assert len(second.missing) == 5 * len(TINY.bounded_levels)
        for config in second.missing:
            assert config.target_throughput is not None
            assert config.target_throughput == config.target_throughput

    def test_model_only_figures_need_no_points(self, tmp_path):
        plan = plan_figures(["table1", "fig17"], TINY,
                            ResultStore(tmp_path))
        assert plan.complete

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown figure"):
            plan_figures(["fig99"], TINY, ResultStore(tmp_path))

    def test_smoke_profile_full_plan_has_no_duplicates(self, tmp_path):
        figure_ids = ["fig3", "fig4", "fig5", "fig6", "fig9", "fig12",
                      "fig14", "fig18", "table1", "fig17"]
        plan = plan_figures(figure_ids, SMOKE_PROFILE,
                            ResultStore(tmp_path))
        hashes = [c.content_hash() for c in plan.missing]
        assert len(hashes) == len(set(hashes))
        assert plan.estimated_cost_units() > 0
        text = plan.describe()
        assert "to run" in text
        assert "est cost" in text


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "redis/R/1") == derive_seed(42, "redis/R/1")

    def test_distinct_per_point_and_base(self):
        seeds = {derive_seed(42, "redis/R/1"), derive_seed(42, "redis/R/2"),
                 derive_seed(42, "mysql/R/1"), derive_seed(43, "redis/R/1")}
        assert len(seeds) == 4

    def test_in_rng_range(self):
        for label in ("a", "b", "c"):
            assert 0 <= derive_seed(1, label) < 2**31 - 1


class TestSweepConfigs:
    def test_expands_product_and_skips_scan_mismatches(self):
        spec = SweepSpec(stores=("redis", "voldemort"),
                         workloads=(WORKLOAD_R, WORKLOAD_RS),
                         node_counts=(1, 2), records_per_node=100,
                         measured_ops=50, warmup_ops=10)
        configs, skipped = spec.configs()
        # Voldemort has no scan support: 2 RS points drop out of 8.
        assert len(configs) == 6
        assert len(skipped) == 2
        assert all(s == "voldemort" for s, __ in skipped)

    def test_derive_seeds_gives_unique_seeds(self):
        spec = SweepSpec(stores=("redis", "mysql"),
                         workloads=(WORKLOAD_R, WORKLOAD_RW),
                         node_counts=(1, 2), records_per_node=100,
                         measured_ops=50, warmup_ops=10)
        flat, __ = spec.configs()
        derived, __ = spec.configs(derive_seeds=True)
        assert all(c.seed == spec.seed for c in flat)
        seeds = {c.seed for c in derived}
        assert len(seeds) == len(derived)

    def test_cost_units_scale_with_work(self):
        spec = SweepSpec(stores=("redis",), workloads=(WORKLOAD_R,),
                         node_counts=(1, 8), records_per_node=1000,
                         measured_ops=500, warmup_ops=100)
        configs, __ = spec.configs()
        small, large = sorted(estimate_cost_units(c) for c in configs)
        assert large > small
