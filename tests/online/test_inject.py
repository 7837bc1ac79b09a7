"""Tests for the drift-injection instruments."""

import pytest

from repro.online.inject import StepDriftJitter
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
