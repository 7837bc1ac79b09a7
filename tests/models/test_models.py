"""Tests for the model wrappers: asymmetric Lasso, DVFS, metrics."""

import math

import numpy as np
import pytest

from repro.models.asymmetric import AsymmetricLassoModel
from repro.models.dvfs import DvfsComponents, DvfsModel
from repro.models.metrics import signed_errors, summarize_errors
from repro.platform.opp import OperatingPoint, OppTable, default_xu3_a7_table
from tests.models.lasso_fit import fit, predict

OPPS = default_xu3_a7_table()


def toy_data(seed=0, n=300):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 50, (n, 4))
    y = 0.5 * X[:, 0] + 2.0 * X[:, 2] + 10.0 + rng.normal(0, 1.0, n)
    return X, y


class TestAsymmetricLassoModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            AsymmetricLassoModel(alpha=0.0)
        with pytest.raises(ValueError):
            AsymmetricLassoModel(gamma=-1.0)

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            ({"alpha": math.nan}, "alpha"),
            ({"alpha": math.inf}, "alpha"),
            ({"alpha": True}, "alpha"),
            ({"gamma": math.nan}, "gamma"),
            ({"gamma": math.inf}, "gamma"),
            ({"gamma": False}, "gamma"),
        ],
        ids=repr,
    )
    def test_refuses_non_finite_or_bool_weights(self, kwargs, named):
        with pytest.raises(ValueError) as error:
            AsymmetricLassoModel(**kwargs)
        message = str(error.value)
        assert "\n" not in message
        assert message.startswith(f"AsymmetricLassoModel: {named} must be")

    @pytest.mark.parametrize(
        "coef, intercept, named",
        [
            ([math.nan, 1.0], 0.0, "coef[0]"),
            ([1.0, -math.inf], 0.0, "coef[1]"),
            ([1.0, 1.0], math.inf, "intercept"),
            ([1.0, 1.0], math.nan, "intercept"),
            ([1.0, 1.0], True, "intercept"),
        ],
        ids=repr,
    )
    def test_from_coefficients_refuses_non_finite(
        self, coef, intercept, named
    ):
        with pytest.raises(ValueError) as error:
            AsymmetricLassoModel.from_coefficients(coef, intercept)
        message = str(error.value)
        assert "\n" not in message
        assert message.startswith(f"AsymmetricLassoModel: {named} must be")

    def test_from_coefficients_checks_weights(self):
        with pytest.raises(ValueError, match="gamma must be a finite number"):
            AsymmetricLassoModel.from_coefficients([1.0], 0.0, gamma=math.inf)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            AsymmetricLassoModel().predict_one(np.zeros(2))
        with pytest.raises(RuntimeError):
            AsymmetricLassoModel().selected_mask()

    def test_alpha_one_close_to_ols(self):
        X, y = toy_data()
        lasso = fit(AsymmetricLassoModel(alpha=1.0, gamma=0.0), X, y)
        design = np.hstack([X, np.ones((X.shape[0], 1))])
        ols, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert np.allclose(lasso.coef_, ols[:-1], atol=0.02)
        assert lasso.intercept_ == pytest.approx(ols[-1], abs=0.5)

    def test_predict_one_matches_matrix_product(self):
        X, y = toy_data()
        model = fit(AsymmetricLassoModel(alpha=1.0), X, y)
        assert model.predict_one(X[0]) == pytest.approx(predict(model, X)[0])

    def test_high_alpha_over_predicts(self):
        X, y = toy_data()
        model = fit(AsymmetricLassoModel(alpha=1000.0), X, y)
        under_rate = np.mean(predict(model, X) < y)
        assert under_rate < 0.05

    def test_feature_selection_exact_zeros(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 10, (400, 6))
        y = 4.0 * X[:, 1] + rng.normal(0, 0.5, 400)
        model = fit(AsymmetricLassoModel(alpha=1.0, gamma=800.0), X, y)
        mask = model.selected_mask()
        assert mask[1]
        assert mask.sum() <= 2

    def test_zero_variance_column_gets_zero_coef(self):
        X, y = toy_data()
        X = X.copy()
        X[:, 3] = 7.0  # constant
        model = fit(AsymmetricLassoModel(alpha=1.0), X, y)
        assert model.coef_[3] == 0.0

    def test_standardization_invisible_to_user(self):
        """Coefficients are reported in original feature units."""
        X, y = toy_data()
        scaled = X.copy()
        scaled[:, 0] *= 1000.0
        model = fit(AsymmetricLassoModel(alpha=1.0), scaled, y)
        assert model.coef_[0] == pytest.approx(0.5 / 1000.0, rel=0.1)


class TestDvfsComponents:
    def test_time_at_formula(self):
        c = DvfsComponents(tmem_s=0.01, ndep_cycles=1e7)
        assert c.time_at(1e9) == pytest.approx(0.02)

    def test_time_at_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            DvfsComponents(0.0, 1.0).time_at(0.0)


class TestDvfsModel:
    def test_needs_two_points(self):
        single = OppTable([OperatingPoint(0, 1e9, 1.0)])
        with pytest.raises(ValueError):
            DvfsModel(single)

    def test_components_roundtrip(self):
        """Components recovered from model-generated anchor times are exact."""
        model = DvfsModel(OPPS)
        truth = DvfsComponents(tmem_s=0.004, ndep_cycles=2.8e7)
        fit = model.components(
            truth.time_at(OPPS.fmin.freq_hz), truth.time_at(OPPS.fmax.freq_hz)
        )
        assert fit.tmem_s == pytest.approx(truth.tmem_s)
        assert fit.ndep_cycles == pytest.approx(truth.ndep_cycles)

    def test_inconsistent_predictions_clamp_ndep(self):
        model = DvfsModel(OPPS)
        # Faster at fmin than fmax: physically impossible, clamp to memory.
        fit = model.components(t_fmin_s=0.01, t_fmax_s=0.02)
        assert fit.ndep_cycles == 0.0
        assert fit.tmem_s == pytest.approx(0.02)

    def test_negative_tmem_clamps(self):
        model = DvfsModel(OPPS)
        # t scales *faster* than 1/f allows: all time becomes cycles.
        fit = model.components(t_fmin_s=1.0, t_fmax_s=0.001)
        assert fit.tmem_s == 0.0
        assert fit.ndep_cycles > 0

    def test_freq_for_budget_inverse(self):
        model = DvfsModel(OPPS)
        c = DvfsComponents(tmem_s=0.0, ndep_cycles=2.8e7)
        f = model.freq_for_budget(c, budget_s=0.050)
        assert f == pytest.approx(2.8e7 / 0.050)

    def test_budget_below_tmem_is_infeasible(self):
        model = DvfsModel(OPPS)
        c = DvfsComponents(tmem_s=0.05, ndep_cycles=1e7)
        assert math.isinf(model.freq_for_budget(c, budget_s=0.04))

    def test_zero_budget_infeasible(self):
        model = DvfsModel(OPPS)
        c = DvfsComponents(tmem_s=0.0, ndep_cycles=1e7)
        assert math.isinf(model.freq_for_budget(c, budget_s=0.0))

    def test_pure_memory_job_runs_at_fmin(self):
        model = DvfsModel(OPPS)
        c = DvfsComponents(tmem_s=0.01, ndep_cycles=0.0)
        assert model.freq_for_budget(c, budget_s=0.05) == OPPS.fmin.freq_hz

    def test_choose_opp_rounds_up(self):
        model = DvfsModel(OPPS)
        # 28M cycles, no memory time: 50 ms needs 560 MHz -> 600 MHz level.
        t_fmax = 2.8e7 / OPPS.fmax.freq_hz
        t_fmin = 2.8e7 / OPPS.fmin.freq_hz
        opp = model.choose_opp(t_fmin, t_fmax, budget_s=0.050)
        assert opp.freq_mhz == 600

    def test_choose_opp_saturates_at_fmax_when_infeasible(self):
        model = DvfsModel(OPPS)
        opp = model.choose_opp(0.5, 0.4, budget_s=0.01)
        assert opp == OPPS.fmax

    def test_longer_budget_never_raises_frequency(self):
        model = DvfsModel(OPPS)
        t_fmax, t_fmin = 0.020, 0.140
        budgets = np.linspace(0.021, 0.2, 40)
        freqs = [
            model.choose_opp(t_fmin, t_fmax, b).freq_hz for b in budgets
        ]
        assert all(f2 <= f1 for f1, f2 in zip(freqs, freqs[1:]))

    def test_chosen_opp_meets_budget_under_model(self):
        model = DvfsModel(OPPS)
        t_fmax, t_fmin = 0.020, 0.140
        c = model.components(t_fmin, t_fmax)
        for budget in (0.025, 0.05, 0.1, 0.15):
            opp = model.choose_opp(t_fmin, t_fmax, budget)
            if c.time_at(OPPS.fmax.freq_hz) <= budget:
                assert c.time_at(opp.freq_hz) <= budget + 1e-12


class TestMetrics:
    def test_signed_errors_orientation(self):
        errors = signed_errors([2.0, 1.0], [1.0, 2.0])
        assert errors.tolist() == [1.0, -1.0]  # over, under

    def test_signed_errors_shape_check(self):
        with pytest.raises(ValueError):
            signed_errors([1.0], [1.0, 2.0])

    def test_summary_quartiles(self):
        errors = np.arange(101, dtype=float)  # 0..100
        s = summarize_errors(errors)
        assert s.median == pytest.approx(50.0)
        assert s.q1 == pytest.approx(25.0)
        assert s.q3 == pytest.approx(75.0)
        assert s.n == 101

    def test_summary_outliers(self):
        errors = np.concatenate([np.zeros(99), [1000.0]])
        s = summarize_errors(errors)
        assert s.n_outliers == 1
        assert s.whisker_high == 0.0

    def test_over_under_rates(self):
        s = summarize_errors(np.array([-1.0, 2.0, 3.0, 0.0]))
        assert s.over_rate == pytest.approx(0.5)
        assert s.under_rate == pytest.approx(0.25)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_errors(np.array([]))
