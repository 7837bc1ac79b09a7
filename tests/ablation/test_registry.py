"""The component registry: off-state semantics declared exactly once."""

from dataclasses import fields

import pytest

from repro.ablation.registry import (
    COMPONENTS,
    PLATFORMS,
    baseline_adaptive,
    baseline_pipeline,
    batch_governor,
    component_names,
    configs_without,
    get_component,
)
from repro.governors.adaptive import AdaptiveConfig


class TestRegistryShape:
    def test_names_are_unique_and_ordered(self):
        names = component_names()
        assert len(names) == len(set(names))
        assert names == tuple(c.name for c in COMPONENTS)

    def test_every_component_documents_itself(self):
        for component in COMPONENTS:
            assert component.title
            assert component.summary.endswith((".", ")"))

    def test_every_component_actually_disables_something(self):
        for component in COMPONENTS:
            assert (
                component.pipeline_off
                or component.adaptive_off
                or component.adaptive_post is not None
            ), component.name

    def test_every_adaptive_knob_is_switched_by_a_component(self):
        # AdaptiveConfig holds only what the ablation varies; the loop's
        # other parameters are constants of repro.governors.adaptive.
        baseline = baseline_adaptive()
        switched = set()
        for name in component_names():
            _, adaptive = configs_without([name])
            switched |= {
                f.name
                for f in fields(AdaptiveConfig)
                if getattr(adaptive, f.name) != getattr(baseline, f.name)
            }
        assert switched == {f.name for f in fields(AdaptiveConfig)}

    def test_unknown_component_lists_valid_names(self):
        with pytest.raises(KeyError, match="asymmetric_loss"):
            get_component("nonesuch")


class TestConfigsWithout:
    def test_nothing_disabled_is_the_baseline(self):
        pipeline, adaptive = configs_without(())
        assert pipeline == baseline_pipeline()
        assert adaptive == baseline_adaptive()
        assert adaptive.bound_skip  # the matrix baseline arms it

    def test_asymmetric_loss_off_is_symmetric_everywhere(self):
        pipeline, adaptive = configs_without(("asymmetric_loss",))
        assert pipeline.alpha == 1.0
        assert adaptive.under_weight == 1.0

    def test_safety_margin_off_pins_zero_offline_and_online(self):
        pipeline, adaptive = configs_without(("safety_margin",))
        assert pipeline.margin == 0.0
        assert adaptive.margin_initial == 0.0
        assert adaptive.margin_floor == 0.0
        assert adaptive.margin_ceiling == 0.0

    def test_slicing_off_runs_the_full_program(self):
        pipeline, _ = configs_without(("slicing",))
        assert pipeline.slice_mode == "full"
        assert pipeline.certify == "warn"

    def test_aimd_off_freezes_margin_at_initial(self):
        _, adaptive = configs_without(("aimd_margin",))
        base = baseline_adaptive()
        assert adaptive.margin_initial == base.margin_initial
        assert adaptive.margin_floor == base.margin_initial
        assert adaptive.margin_ceiling == base.margin_initial

    def test_aimd_composes_with_zero_margin(self):
        """The historical validator trap: freezing AIMD on top of a
        zero margin must freeze at zero, not at the default 10%."""
        _, adaptive = configs_without(("safety_margin", "aimd_margin"))
        assert adaptive.margin_initial == 0.0
        assert adaptive.margin_floor == 0.0
        assert adaptive.margin_ceiling == 0.0
        # ...which makes the pair indistinguishable from margin-off
        # alone (the planner drops the duplicate).
        assert adaptive == configs_without(("safety_margin",))[1]

    def test_merge_order_is_caller_independent(self):
        ab = configs_without(("fallback", "recalibration"))
        ba = configs_without(("recalibration", "fallback"))
        assert ab == ba

    def test_unknown_name_rejected_before_merging(self):
        with pytest.raises(KeyError):
            configs_without(("asymmetric_loss", "nonesuch"))


class TestBenchmarkSharedEnumerations:
    def test_batch_governor_name(self):
        assert batch_governor(8) == "prediction-batch8"

    def test_batch_governor_validates(self):
        with pytest.raises(ValueError):
            batch_governor(0)

    def test_platforms_construct_real_models(self):
        for name, platform in PLATFORMS.items():
            assert platform.name == name
            table = platform.opps()
            assert table.fmax.freq_hz > table.fmin.freq_hz
            assert platform.power().power(table.fmax) > 0
