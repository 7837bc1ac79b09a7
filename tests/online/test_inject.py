"""Tests for the drift-injection instruments."""

import pytest

from repro.online.inject import StepDriftJitter, scale_inputs
from repro.platform.jitter import LogNormalJitter, NoJitter


class TestStepDriftJitter:
    def test_shifts_when_clock_passes_threshold(self):
        now = {"t": 0.0}
        jitter = StepDriftJitter(
            NoJitter(), 1.5, shift_at_s=1.0, clock=lambda: now["t"]
        )
        assert jitter.sample() == pytest.approx(1.0)
        now["t"] = 0.99
        assert jitter.sample() == pytest.approx(1.0)
        now["t"] = 1.0
        assert jitter.sample() == pytest.approx(1.5)

    def test_shift_at_zero_drifts_immediately(self):
        jitter = StepDriftJitter(
            NoJitter(), 2.0, shift_at_s=0.0, clock=lambda: 0.0
        )
        assert jitter.sample() == pytest.approx(2.0)

    def test_drift_scales_the_inner_draw(self):
        inner = LogNormalJitter(0.1, seed=5)
        reference = LogNormalJitter(0.1, seed=5)
        jitter = StepDriftJitter(inner, 1.5, shift_at_s=0.0, clock=lambda: 1.0)
        assert [jitter.sample() for _ in range(5)] == [
            1.5 * reference.sample() for _ in range(5)
        ]

    def test_factor_validated(self):
        with pytest.raises(ValueError, match="factor"):
            StepDriftJitter(NoJitter(), 0.0, shift_at_s=1.0, clock=lambda: 0.0)


class TestScaleInputs:
    INPUTS = [
        {"width": 10, "height": 4, "kind": 1, "flag": True, "p": 0.4,
         "gain": 2.5},
    ] * 4

    def test_jobs_before_index_untouched(self):
        scaled = scale_inputs(self.INPUTS, from_index=2, scale=2.0)
        assert scaled[0] == self.INPUTS[0]
        assert scaled[1] == self.INPUTS[1]
        assert scaled[2] != self.INPUTS[2]

    def test_counts_scaled_flags_preserved(self):
        scaled = scale_inputs(self.INPUTS, from_index=0, scale=2.0)[0]
        assert scaled["width"] == 20
        assert scaled["height"] == 8
        assert scaled["kind"] == 1  # 0/1 values are modes, not counts
        assert scaled["flag"] is True
        assert scaled["p"] == 0.4  # fractions stay fractions
        assert scaled["gain"] == pytest.approx(5.0)

    def test_downscale_clamps_to_one(self):
        scaled = scale_inputs([{"n": 2}], from_index=0, scale=0.1)[0]
        assert scaled["n"] == 1

    def test_scale_one_is_identity(self):
        assert scale_inputs(self.INPUTS, 0, 1.0) == self.INPUTS

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            scale_inputs(self.INPUTS, from_index=-1, scale=2.0)
        with pytest.raises(ValueError):
            scale_inputs(self.INPUTS, from_index=0, scale=0.0)
