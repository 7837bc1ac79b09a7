"""Planner properties: matrix shape, dedup, and JSON round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ablation.planner import (
    DEFAULT_SCENARIOS,
    AblationPlan,
    Scenario,
    plan_matrix,
)
from repro.ablation.registry import component_names
from repro.workloads.registry import app_names

COMPONENT_SUBSETS = st.lists(
    st.sampled_from(component_names()), min_size=1, unique=True
)
WORKLOAD_SUBSETS = st.lists(
    st.sampled_from(app_names()), min_size=1, max_size=3, unique=True
)
SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


class TestMatrixProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        workloads=WORKLOAD_SUBSETS,
        components=COMPONENT_SUBSETS,
        seed=SEEDS,
        pairwise=st.booleans(),
    )
    def test_baseline_exactly_once(
        self, workloads, components, seed, pairwise
    ):
        plan = plan_matrix(
            workloads, seed=seed, components=components, pairwise=pairwise
        )
        baselines = [v for v in plan.variants if v.is_baseline]
        assert len(baselines) == 1
        assert plan.variants[0].name == "baseline"

    @settings(max_examples=40, deadline=None)
    @given(components=COMPONENT_SUBSETS, pairwise=st.booleans())
    def test_each_component_off_exactly_once(self, components, pairwise):
        plan = plan_matrix(
            ["rijndael"], components=components, pairwise=pairwise
        )
        singles = [
            v.disabled[0]
            for v in plan.variants
            if len(v.disabled) == 1
        ]
        # Every requested component gets exactly one one-off variant
        # (singles are planned before pairs, so dedup cannot eat them).
        assert sorted(singles) == sorted(components)

    @settings(max_examples=40, deadline=None)
    @given(components=COMPONENT_SUBSETS, pairwise=st.booleans())
    def test_no_duplicate_fingerprints(self, components, pairwise):
        plan = plan_matrix(
            ["rijndael"], components=components, pairwise=pairwise
        )
        fingerprints = [v.fingerprint for v in plan.variants]
        assert len(fingerprints) == len(set(fingerprints))
        assert all(fingerprints)

    @settings(max_examples=25, deadline=None)
    @given(
        workloads=WORKLOAD_SUBSETS,
        components=COMPONENT_SUBSETS,
        seed=SEEDS,
        n_jobs=st.integers(min_value=1, max_value=500),
        pairwise=st.booleans(),
    )
    def test_plan_json_round_trip(
        self, workloads, components, seed, n_jobs, pairwise
    ):
        plan = plan_matrix(
            workloads,
            seed=seed,
            components=components,
            n_jobs=n_jobs,
            pairwise=pairwise,
        )
        again = AblationPlan.from_json(plan.to_json())
        assert again == plan
        # And the rendering itself is stable (canonical key order).
        assert again.to_json() == plan.to_json()

    @settings(max_examples=25, deadline=None)
    @given(workloads=WORKLOAD_SUBSETS, components=COMPONENT_SUBSETS)
    def test_cells_enumerate_canonically(self, workloads, components):
        plan = plan_matrix(workloads, components=components)
        cells = plan.cells
        assert len(cells) == (
            len(plan.workloads) * len(plan.scenarios) * len(plan.variants)
        )
        keys = [
            (c.workload, c.scenario.name, c.variant.name) for c in cells
        ]
        expected = [
            (w, s.name, v.name)
            for w in plan.workloads
            for s in plan.scenarios
            for v in plan.variants
        ]
        assert keys == expected


class TestDedup:
    def test_margin_aimd_pair_collapses_onto_margin_alone(self):
        plan = plan_matrix(
            ["rijndael"],
            components=["safety_margin", "aimd_margin"],
            pairwise=True,
        )
        names = [v.name for v in plan.variants]
        assert names == [
            "baseline", "no-safety_margin", "no-aimd_margin"
        ]
        assert plan.dropped_duplicates == (
            "no-safety_margin+no-aimd_margin (== no-safety_margin)",
        )

    def test_distinct_pairs_survive(self):
        plan = plan_matrix(
            ["rijndael"],
            components=["asymmetric_loss", "recalibration"],
            pairwise=True,
        )
        names = [v.name for v in plan.variants]
        assert "no-asymmetric_loss+no-recalibration" in names
        assert plan.dropped_duplicates == ()


class TestValidation:
    def test_unknown_workload(self):
        with pytest.raises(KeyError, match="nonesuch"):
            plan_matrix(["nonesuch"])

    def test_duplicate_workloads(self):
        with pytest.raises(ValueError, match="duplicate"):
            plan_matrix(["rijndael", "rijndael"])

    def test_unknown_component(self):
        with pytest.raises(KeyError):
            plan_matrix(["rijndael"], components=["nonesuch"])

    def test_empty_components(self):
        with pytest.raises(ValueError):
            plan_matrix(["rijndael"], components=[])

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            plan_matrix(["rijndael"], n_jobs=0)
        with pytest.raises(ValueError):
            plan_matrix(["rijndael"], profile_jobs=1)
        with pytest.raises(ValueError):
            plan_matrix(["rijndael"], switch_samples=0)

    def test_duplicate_scenario_names(self):
        with pytest.raises(ValueError, match="duplicate scenario"):
            plan_matrix(
                ["rijndael"],
                scenarios=[Scenario("x"), Scenario("x", jitter_sigma=0.1)],
            )

    def test_scenario_field_validation(self):
        with pytest.raises(ValueError):
            Scenario("bad", budget_scale=0.0)
        with pytest.raises(ValueError):
            Scenario("bad", jitter_sigma=-0.1)
        with pytest.raises(ValueError):
            Scenario("bad", drift_at_frac=1.5)

    def test_default_grid_covers_the_three_stressors(self):
        names = [s.name for s in DEFAULT_SCENARIOS]
        assert names == ["nominal", "jitter", "drift"]
        assert DEFAULT_SCENARIOS[2].drift_factor != 1.0
        assert DEFAULT_SCENARIOS[0].drift_factor == 1.0
