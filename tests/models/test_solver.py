"""Tests for the FISTA asymmetric-Lasso solver."""

import math

import numpy as np
import pytest

from repro.models.solver import (
    asymmetric_lasso_objective,
    solve_asymmetric_lasso,
)


def toy_data(seed=0, n=200, noise=1.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, (n, 3))
    beta = np.array([2.0, 0.0, -1.0])
    y = X @ beta + rng.normal(0, noise, n)
    return X, y, beta


class TestValidation:
    def test_rejects_1d_X(self):
        with pytest.raises(ValueError):
            solve_asymmetric_lasso(np.zeros(5), np.zeros(5))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_asymmetric_lasso(np.zeros((5, 2)), np.zeros(4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            solve_asymmetric_lasso(np.zeros((0, 2)), np.zeros(0))

    def test_rejects_bad_alpha(self):
        X, y, _ = toy_data()
        with pytest.raises(ValueError):
            solve_asymmetric_lasso(X, y, alpha=0.0)

    def test_rejects_negative_gamma(self):
        X, y, _ = toy_data()
        with pytest.raises(ValueError):
            solve_asymmetric_lasso(X, y, gamma=-1.0)

    def test_rejects_bad_penalty_mask_length(self):
        X, y, _ = toy_data()
        with pytest.raises(ValueError):
            solve_asymmetric_lasso(X, y, penalty_mask=np.ones(5, dtype=bool))

    @pytest.mark.parametrize(
        "argument, value",
        [
            ("alpha", math.nan),
            ("alpha", math.inf),
            ("alpha", True),
            ("alpha", "100"),
            ("gamma", math.nan),
            ("gamma", -math.inf),
            ("tol", math.nan),
            ("tol", -1e-9),
            ("max_iter", 0),
            ("max_iter", -3),
            ("max_iter", 2.5),
            ("max_iter", True),
        ],
        ids=repr,
    )
    def test_rejects_malformed_scalar(self, argument, value):
        """Each one used to fit quietly: gamma=nan dropped the L1 term and
        reported convergence, alpha=nan ran every step to an all-NaN
        beta, tol=nan never converged, max_iter <= 0 returned zeros and
        alpha=True fit as alpha = 1."""
        X, y, _ = toy_data()
        with pytest.raises(ValueError) as error:
            solve_asymmetric_lasso(X, y, **{argument: value})
        message = str(error.value)
        assert "\n" not in message and argument in message

    @pytest.mark.parametrize(
        "argument", ["X", "y", "gamma_weights"], ids=str
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=repr)
    def test_rejects_non_finite_arrays(self, argument, bad):
        """A NaN or inf in the data used to yield NaN coefficients."""
        X, y, _ = toy_data()
        arrays = {"X": X.copy(), "y": y.copy(), "gamma_weights": np.ones(3)}
        arrays[argument].flat[7 % arrays[argument].size] = bad
        with pytest.raises(ValueError) as error:
            solve_asymmetric_lasso(
                arrays["X"], arrays["y"], gamma_weights=arrays["gamma_weights"]
            )
        message = str(error.value)
        assert "\n" not in message and message.startswith(f"{argument} ")


class TestSymmetricCase:
    def test_alpha_one_matches_least_squares(self):
        """With alpha=1 and gamma=0 the objective is plain least squares."""
        X, y, _ = toy_data(noise=0.5)
        result = solve_asymmetric_lasso(X, y, alpha=1.0, gamma=0.0)
        lstsq, *_ = np.linalg.lstsq(X, y, rcond=None)
        assert np.allclose(result.beta, lstsq, atol=1e-4)

    def test_exact_recovery_noise_free(self):
        X, y, beta = toy_data(noise=0.0)
        result = solve_asymmetric_lasso(X, y, alpha=1.0, gamma=0.0)
        assert np.allclose(result.beta, beta, atol=1e-6)

    def test_converged_flag_set(self):
        X, y, _ = toy_data()
        result = solve_asymmetric_lasso(X, y, alpha=1.0)
        assert result.converged

    def test_zero_design_matrix(self):
        result = solve_asymmetric_lasso(np.zeros((10, 3)), np.ones(10))
        assert np.allclose(result.beta, 0.0)
        assert result.converged


class TestAsymmetry:
    def test_large_alpha_reduces_under_prediction(self):
        X, y, _ = toy_data(noise=2.0)
        sym = solve_asymmetric_lasso(X, y, alpha=1.0)
        asym = solve_asymmetric_lasso(X, y, alpha=100.0)
        under_sym = np.mean(X @ sym.beta - y < 0)
        under_asym = np.mean(X @ asym.beta - y < 0)
        assert under_asym < under_sym

    def test_alpha_shifts_predictions_upward(self):
        X, y, _ = toy_data(noise=2.0)
        sym = solve_asymmetric_lasso(X, y, alpha=1.0)
        asym = solve_asymmetric_lasso(X, y, alpha=1000.0)
        assert np.mean(X @ asym.beta) > np.mean(X @ sym.beta)

    def test_objective_decreases_with_solution(self):
        X, y, _ = toy_data(noise=2.0)
        result = solve_asymmetric_lasso(X, y, alpha=50.0, gamma=1.0)
        at_zero = asymmetric_lasso_objective(
            X, y, np.zeros(3), alpha=50.0, gamma=1.0
        )
        assert result.objective < at_zero

    def test_solution_is_local_min_along_axes(self):
        """Perturbing any coordinate of the solution increases F."""
        X, y, _ = toy_data(noise=1.0)
        alpha, gamma = 30.0, 5.0
        result = solve_asymmetric_lasso(X, y, alpha=alpha, gamma=gamma)
        base = asymmetric_lasso_objective(X, y, result.beta, alpha, gamma)
        for j in range(3):
            for eps in (1e-3, -1e-3):
                perturbed = result.beta.copy()
                perturbed[j] += eps
                assert (
                    asymmetric_lasso_objective(X, y, perturbed, alpha, gamma)
                    >= base - 1e-9
                )


class TestSparsity:
    def test_gamma_zeroes_irrelevant_features(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 10, (300, 5))
        y = 3.0 * X[:, 0] + rng.normal(0, 0.5, 300)
        result = solve_asymmetric_lasso(X, y, alpha=1.0, gamma=500.0)
        assert abs(result.beta[0]) > 1.0
        assert np.all(np.abs(result.beta[1:]) < 1e-6)

    def test_larger_gamma_selects_fewer(self):
        X, y, _ = toy_data(noise=1.0)
        small = solve_asymmetric_lasso(X, y, gamma=1.0)
        large = solve_asymmetric_lasso(X, y, gamma=1e5)
        n_small = int(np.sum(np.abs(small.beta) > 1e-9))
        n_large = int(np.sum(np.abs(large.beta) > 1e-9))
        assert n_large <= n_small

    def test_huge_gamma_zeroes_everything(self):
        X, y, _ = toy_data()
        result = solve_asymmetric_lasso(X, y, gamma=1e12)
        assert np.allclose(result.beta, 0.0)

    def test_penalty_mask_protects_columns(self):
        """An unpenalized (intercept-like) column survives a huge gamma."""
        rng = np.random.default_rng(4)
        X = np.hstack([rng.uniform(0, 10, (200, 2)), np.ones((200, 1))])
        y = X[:, 0] + 5.0 + rng.normal(0, 0.1, 200)
        mask = np.array([True, True, False])
        result = solve_asymmetric_lasso(X, y, gamma=1e9, penalty_mask=mask)
        assert np.allclose(result.beta[:2], 0.0, atol=1e-6)
        assert result.beta[2] > 1.0  # absorbed the mean


class TestObjectiveFunction:
    def test_objective_zero_for_perfect_fit(self):
        X = np.eye(3)
        y = np.array([1.0, 2.0, 3.0])
        assert asymmetric_lasso_objective(X, y, y, alpha=10.0, gamma=0.0) == 0.0

    def test_over_and_under_weighted_differently(self):
        X = np.array([[1.0]])
        over = asymmetric_lasso_objective(
            X, np.array([0.0]), np.array([1.0]), alpha=100.0, gamma=0.0
        )
        under = asymmetric_lasso_objective(
            X, np.array([2.0]), np.array([1.0]), alpha=100.0, gamma=0.0
        )
        assert over == pytest.approx(1.0)
        assert under == pytest.approx(100.0)

    def test_l1_term_counts_masked_only(self):
        X = np.zeros((1, 2))
        y = np.zeros(1)
        beta = np.array([2.0, 3.0])
        full = asymmetric_lasso_objective(X, y, beta, 1.0, 1.0)
        masked = asymmetric_lasso_objective(
            X, y, beta, 1.0, 1.0, penalty_mask=np.array([True, False])
        )
        assert full == pytest.approx(5.0)
        assert masked == pytest.approx(2.0)
