"""Tests for the RLS recalibrator, anchor model, and adaptive margin."""

import numpy as np
import pytest

from repro.online.recalibrate import (
    AdaptiveMargin,
    OnlineAnchorModel,
    RecursiveLeastSquares,
)


def stream(true_coef, n, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        x = rng.uniform(0.0, 2.0, len(true_coef))
        yield x, float(x @ true_coef) + float(rng.normal(0.0, noise))


class TestRecursiveLeastSquares:
    def test_converges_to_true_coefficients(self):
        """Converges up to the ridge-like bias of the finite initial
        covariance (prior pull toward theta0 ~ 1/(p0 n))."""
        true = np.array([2.0, -1.0, 0.5])
        rls = RecursiveLeastSquares(np.zeros(3), lam=1.0, p0=10.0)
        for x, y in stream(true, 200, seed=1):
            rls.update(x, y)
        assert np.allclose(rls.theta, true, atol=0.01)

    def test_forgetting_tracks_a_changed_map(self):
        before = np.array([1.0, 1.0])
        after = np.array([2.0, 0.5])
        rls = RecursiveLeastSquares(np.zeros(2), lam=0.95, p0=10.0)
        for x, y in stream(before, 100, seed=2):
            rls.update(x, y)
        for x, y in stream(after, 150, seed=3):
            rls.update(x, y)
        assert np.allclose(rls.theta, after, atol=0.05)

    def test_heavier_weight_moves_estimate_further(self):
        x = np.array([1.0, 0.5])
        light = RecursiveLeastSquares(np.zeros(2), lam=1.0, p0=1.0)
        heavy = RecursiveLeastSquares(np.zeros(2), lam=1.0, p0=1.0)
        light.update(x, 1.0, weight=1.0)
        heavy.update(x, 1.0, weight=25.0)
        assert heavy.predict(x) > light.predict(x)

    def test_weight_one_matches_classic_rls(self):
        a = RecursiveLeastSquares(np.zeros(2), lam=0.98, p0=0.5)
        b = RecursiveLeastSquares(np.zeros(2), lam=0.98, p0=0.5)
        for x, y in stream(np.array([1.0, 2.0]), 50, seed=4):
            a.update(x, y)
            b.update(x, y, weight=1.0)
        assert np.allclose(a.theta, b.theta)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RecursiveLeastSquares(np.zeros(2), lam=0.0)
        with pytest.raises(ValueError):
            RecursiveLeastSquares(np.zeros(2), p0=0.0)
        rls = RecursiveLeastSquares(np.zeros(2))
        with pytest.raises(ValueError):
            rls.update(np.ones(2), 1.0, weight=0.0)


class TestOnlineAnchorModel:
    def test_matches_offline_before_first_update(self):
        model = OnlineAnchorModel(coef=np.array([0.1, 0.2]), intercept=0.05)
        x = np.array([3.0, 4.0])
        assert model.predict_one(x) == pytest.approx(0.1 * 3 + 0.2 * 4 + 0.05)

    def test_warm_start_preserves_prediction_at_first_update(self):
        """Freezing scales re-bases theta without changing the function."""
        model = OnlineAnchorModel(
            coef=np.array([0.1, 0.2]), intercept=0.05, p0=1e-9
        )
        x = np.array([30.0, 0.5])
        before = model.predict_one(x)
        model.update(x, before)  # zero-residual update
        assert model.predict_one(x) == pytest.approx(before, rel=1e-6)

    def test_tracks_multiplicative_drift(self):
        coef = np.array([0.02, 0.01])
        model = OnlineAnchorModel(coef=coef, intercept=0.0, lam=0.95, p0=0.5)
        rng = np.random.default_rng(6)
        for _ in range(150):
            x = rng.uniform(1.0, 10.0, 2)
            truth = 1.35 * float(x @ coef)
            model.update(x, truth)
        probe = np.array([5.0, 5.0])
        assert model.predict_one(probe) == pytest.approx(
            1.35 * float(probe @ coef), rel=0.05
        )

    def test_underprediction_corrected_faster_than_overprediction(self):
        """The asymmetric weighting in action: one surprise job moves the
        model further when the surprise was a miss-risking slowdown."""
        coef = np.array([0.02])
        x = np.array([5.0])
        base = float(x @ coef)
        under = OnlineAnchorModel(coef=coef, intercept=0.0, under_weight=25.0)
        over = OnlineAnchorModel(coef=coef, intercept=0.0, under_weight=25.0)
        under.update(x, base * 1.5)  # model under-predicted
        over.update(x, base * 0.5)  # model over-predicted
        gap_up = under.predict_one(x) - base
        gap_down = base - over.predict_one(x)
        assert gap_up > gap_down

    def test_under_weight_below_one_rejected(self):
        with pytest.raises(ValueError, match="under_weight"):
            OnlineAnchorModel(coef=np.ones(2), intercept=0.0, under_weight=0.5)


def paper_margin():
    """The adaptive governor's default margin: 10%, within [4%, 40%]."""
    return AdaptiveMargin(initial=0.10, floor=0.04, ceiling=0.40)


class TestAdaptiveMargin:
    def test_miss_widens_multiplicatively(self):
        assert paper_margin().update(missed=True) == pytest.approx(0.14)

    def test_ceiling_caps_widening(self):
        margin = AdaptiveMargin(initial=0.10, floor=0.04, ceiling=0.20)
        for _ in range(10):
            margin.update(missed=True)
        assert margin.value == pytest.approx(0.20)

    def test_compliant_job_decays_by_half_a_percent(self):
        assert paper_margin().update(missed=False) == pytest.approx(0.0995)

    def test_decays_toward_floor_when_compliant(self):
        margin = paper_margin()
        for _ in range(200):
            margin.update(missed=False)
        assert margin.value == pytest.approx(0.04)

    def test_no_decay_while_miss_rate_above_target(self):
        """After one miss the 0.05-weight miss EWMA starts at 1 and needs
        77 compliant jobs to fall to the 2% target; the margin holds
        until then."""
        margin = paper_margin()
        margin.update(missed=True)
        widened = margin.value
        for _ in range(76):
            assert margin.update(missed=False) == widened
        assert margin.update(missed=False) == pytest.approx(widened * 0.995)

    def test_ordering_validated(self):
        with pytest.raises(ValueError):
            AdaptiveMargin(initial=0.05, floor=0.10, ceiling=0.40)

