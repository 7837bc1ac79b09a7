"""Property-based tests on the FISTA solver's mathematical invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.models.solver import (
    asymmetric_lasso_objective,
    solve_asymmetric_lasso,
)

fast = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def data(seed, n=120, p=4, noise=1.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, (n, p))
    beta = rng.uniform(-2, 2, p)
    y = X @ beta + rng.normal(0, noise, n)
    return X, y


class TestSolverInvariants:
    @fast
    @given(seed=st.integers(0, 10_000), alpha=st.floats(1.0, 500.0))
    def test_solution_beats_zero_and_lstsq(self, seed, alpha):
        """The solver's objective is at least as good as both the zero
        vector and the unpenalized least-squares solution."""
        X, y = data(seed)
        gamma = 5.0
        result = solve_asymmetric_lasso(X, y, alpha=alpha, gamma=gamma)
        f_star = result.objective
        zero = asymmetric_lasso_objective(
            X, y, np.zeros(X.shape[1]), alpha, gamma
        )
        lstsq, *_ = np.linalg.lstsq(X, y, rcond=None)
        f_lstsq = asymmetric_lasso_objective(X, y, lstsq, alpha, gamma)
        assert f_star <= zero + 1e-6
        assert f_star <= f_lstsq + 1e-6

    @fast
    @given(seed=st.integers(0, 10_000))
    def test_row_permutation_invariance(self, seed):
        X, y = data(seed)
        rng = np.random.default_rng(seed + 1)
        order = rng.permutation(len(y))
        a = solve_asymmetric_lasso(X, y, alpha=10.0, gamma=1.0)
        b = solve_asymmetric_lasso(X[order], y[order], alpha=10.0, gamma=1.0)
        assert np.allclose(a.beta, b.beta, atol=1e-6)

    @fast
    @given(seed=st.integers(0, 10_000), scale=st.floats(0.1, 10.0))
    def test_target_scaling_equivariance(self, seed, scale):
        """Scaling y (with gamma scaled along) scales beta identically —
        the objective is 2-homogeneous in (y, beta) with gamma ~ scale."""
        X, y = data(seed, noise=0.5)
        base = solve_asymmetric_lasso(X, y, alpha=10.0, gamma=2.0)
        scaled = solve_asymmetric_lasso(
            X, y * scale, alpha=10.0, gamma=2.0 * scale
        )
        assert np.allclose(scaled.beta, base.beta * scale, atol=1e-4 * scale)

    @fast
    @given(seed=st.integers(0, 10_000))
    def test_gamma_zero_interpolates_data_better(self, seed):
        """More L1 never reduces the smooth loss's optimum quality."""
        X, y = data(seed)
        free = solve_asymmetric_lasso(X, y, alpha=10.0, gamma=0.0)
        tight = solve_asymmetric_lasso(X, y, alpha=10.0, gamma=100.0)

        def smooth(beta):
            return asymmetric_lasso_objective(X, y, beta, 10.0, 0.0)

        assert smooth(free.beta) <= smooth(tight.beta) + 1e-6

    @fast
    @given(seed=st.integers(0, 10_000), alpha=st.floats(2.0, 1000.0))
    def test_under_rate_never_worse_than_symmetric(self, seed, alpha):
        X, y = data(seed, noise=2.0)
        sym = solve_asymmetric_lasso(X, y, alpha=1.0)
        asym = solve_asymmetric_lasso(X, y, alpha=alpha)
        under_sym = np.mean(X @ sym.beta - y < 0)
        under_asym = np.mean(X @ asym.beta - y < 0)
        assert under_asym <= under_sym + 0.05
