"""Integration tests for the adaptive governor's feedback loop."""

import pytest

from tests.online.conftest import make_predictive, run_toy

from repro.governors.adaptive import (
    COOLDOWN_JOBS,
    REENGAGE_ABS_RESIDUAL,
    AdaptiveConfig,
    AdaptiveGovernor,
    AdaptiveMode,
)
from repro.governors.performance import PerformanceGovernor


def make_adaptive(toy_stack, **config_kwargs) -> AdaptiveGovernor:
    return AdaptiveGovernor(
        make_predictive(toy_stack),
        config=AdaptiveConfig(**config_kwargs) if config_kwargs else None,
    )


def window_miss(jobs, start, stop):
    window = jobs[start:stop]
    return sum(1 for j in window if j.missed) / len(window)


class TestConstruction:
    def test_starts_predicting(self, toy_stack):
        gov = make_adaptive(toy_stack)
        assert gov.name == "adaptive"
        assert gov.mode is AdaptiveMode.PREDICT
        assert gov.predicting
        assert gov.drift_events == 0

    def test_falls_back_to_the_performance_governor(self, toy_stack):
        gov = make_adaptive(toy_stack)
        assert type(gov.fallback) is PerformanceGovernor

    def test_disarmed_config_ignores_external_arm(self, toy_stack):
        gov = make_adaptive(toy_stack, fallback_armed=False)
        assert gov.arm_fallback(reason="slo:miss") is False
        assert gov.mode is AdaptiveMode.PREDICT
        assert gov.drift_events == 0


class TestStationaryBehaviour:
    def test_no_alarms_without_drift(self, toy_stack):
        gov = make_adaptive(toy_stack)
        result = run_toy(toy_stack, gov, n_jobs=120)
        assert gov.drift_events == 0
        assert gov.mode is AdaptiveMode.PREDICT
        assert result.miss_rate < 0.1

    def test_saves_energy_like_the_frozen_governor(self, toy_stack):
        adaptive = run_toy(toy_stack, make_adaptive(toy_stack), n_jobs=120)
        frozen = run_toy(toy_stack, make_predictive(toy_stack), n_jobs=120)
        assert adaptive.energy_j < 1.3 * frozen.energy_j

    def test_adaptation_time_recorded_and_small(self, toy_stack):
        # The toy slice is nearly free, so the fig17-envelope comparison
        # lives in the real-app experiment; here we pin that the feedback
        # bill exists and is negligible against the job budget.
        result = run_toy(toy_stack, make_adaptive(toy_stack), n_jobs=60)
        assert result.mean_adaptation_time_s > 0.0
        assert result.mean_adaptation_time_s < 0.01 * result.budget_s
        frozen = run_toy(toy_stack, make_predictive(toy_stack), n_jobs=60)
        assert frozen.mean_adaptation_time_s == 0.0


class TestDriftRecovery:
    N_JOBS = 200
    SHIFT = 100

    @pytest.fixture(scope="class")
    def drifted(self, toy_stack):
        gov = make_adaptive(toy_stack)
        result = run_toy(
            toy_stack, gov, n_jobs=self.N_JOBS, shift_job=self.SHIFT
        )
        return gov, result

    def test_drift_is_detected(self, drifted):
        gov, _ = drifted
        assert gov.drift_events >= 1

    def test_reengages_after_recalibration(self, drifted):
        gov, _ = drifted
        assert gov.mode is AdaptiveMode.PREDICT

    def test_recovers_miss_rate(self, drifted):
        _, result = drifted
        pre = window_miss(result.jobs, self.SHIFT - 30, self.SHIFT)
        final = window_miss(result.jobs, self.N_JOBS - 30, self.N_JOBS)
        assert final <= max(2 * pre, 0.05)

    def test_frozen_governor_stays_broken(self, toy_stack, drifted):
        frozen = run_toy(
            toy_stack,
            make_predictive(toy_stack),
            n_jobs=self.N_JOBS,
            shift_job=self.SHIFT,
        )
        _, adaptive = drifted
        frozen_final = window_miss(
            frozen.jobs, self.N_JOBS - 30, self.N_JOBS
        )
        adaptive_final = window_miss(
            adaptive.jobs, self.N_JOBS - 30, self.N_JOBS
        )
        assert frozen_final > 0.2
        assert adaptive_final < frozen_final

    def test_monitor_saw_every_job(self, drifted):
        gov, result = drifted
        assert gov.predictor.generation == result.n_jobs


class TestReengagement:
    """Fallback lasts ``COOLDOWN_JOBS`` jobs at least, and until the
    |residual| EWMA is below ``REENGAGE_ABS_RESIDUAL``."""

    def armed(self, toy_stack) -> AdaptiveGovernor:
        gov = make_adaptive(toy_stack)
        assert gov.arm_fallback()
        return gov

    def test_cooldown_holds_fallback(self, toy_stack):
        gov = self.armed(toy_stack)
        run_toy(toy_stack, gov, n_jobs=COOLDOWN_JOBS - 1)
        assert gov.abs_residual.get() < REENGAGE_ABS_RESIDUAL
        assert gov.mode is AdaptiveMode.FALLBACK

    def test_reengages_when_cooldown_ends_with_small_residuals(
        self, toy_stack
    ):
        gov = self.armed(toy_stack)
        run_toy(toy_stack, gov, n_jobs=COOLDOWN_JOBS)
        assert gov.mode is AdaptiveMode.PREDICT
        assert gov.drift_events == 1

    def test_large_residual_average_holds_fallback_until_it_decays(
        self, toy_stack
    ):
        gov = self.armed(toy_stack)
        gov.abs_residual.update(5.0)
        run_toy(toy_stack, gov, n_jobs=2 * COOLDOWN_JOBS)
        assert gov.abs_residual.get() >= REENGAGE_ABS_RESIDUAL
        assert gov.mode is AdaptiveMode.FALLBACK
        run_toy(toy_stack, gov, n_jobs=4 * COOLDOWN_JOBS)
        assert gov.mode is AdaptiveMode.PREDICT
