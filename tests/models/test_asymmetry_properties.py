"""Property-based tests on the asymmetric model's two design levers.

The paper's claims, as invariants: raising the under-prediction penalty
alpha trades accuracy for fewer under-predictions (Fig. 20), and raising
the sparsity weight gamma trades accuracy for fewer surviving features
(the lever that shrinks the prediction slice, §3.3).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.models.asymmetric import AsymmetricLassoModel
from tests.models.lasso_fit import fit, n_selected, predict

fast = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def data(seed, n=150, p=5, noise=2.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, (n, p))
    beta = rng.uniform(0.5, 2, p)
    y = X @ beta + rng.normal(0, noise, n)
    return X, y


def under_rate(model, X, y):
    return float(np.mean(predict(model, X) < y))


class TestAlphaMonotonicity:
    @fast
    @given(seed=st.integers(0, 10_000))
    def test_under_rate_non_increasing_in_alpha(self, seed):
        """Training-set under-prediction rate falls (weakly) along the
        paper's alpha ladder {1, 10, 100, 1000}."""
        X, y = data(seed)
        rates = []
        for alpha in (1.0, 10.0, 100.0, 1000.0):
            model = fit(AsymmetricLassoModel(alpha=alpha), X, y)
            rates.append(under_rate(model, X, y))
        # Weak monotonicity with a one-sample tolerance: FISTA converges
        # to tolerance, not exactly, so adjacent rungs may tie "wrong"
        # by a single sample.
        slack = 1.0 / len(y)
        for lo, hi in zip(rates[1:], rates):
            assert lo <= hi + slack
        # And the ladder's ends are genuinely ordered.
        assert rates[-1] <= rates[0]

    @fast
    @given(seed=st.integers(0, 10_000), alpha=st.floats(50.0, 1000.0))
    def test_large_alpha_overpredicts_most_samples(self, seed, alpha):
        X, y = data(seed)
        model = fit(AsymmetricLassoModel(alpha=alpha), X, y)
        assert under_rate(model, X, y) < 0.25


class TestGammaSparsity:
    @fast
    @given(seed=st.integers(0, 10_000))
    def test_gamma_ladder_is_weakly_sparsifying(self, seed):
        """More L1 never selects more features (ladder spans none-to-all)."""
        X, y = data(seed)
        counts = [
            n_selected(fit(AsymmetricLassoModel(alpha=10.0, gamma=g), X, y))
            for g in (0.0, 1e2, 1e4, 1e6)
        ]
        for lo, hi in zip(counts[1:], counts):
            assert lo <= hi
        assert counts[0] == X.shape[1]

    @fast
    @given(seed=st.integers(0, 10_000))
    def test_huge_gamma_kills_every_coefficient(self, seed):
        """In the limit the model degrades to its (unpenalized) intercept."""
        X, y = data(seed)
        model = fit(AsymmetricLassoModel(alpha=10.0, gamma=1e9), X, y)
        assert n_selected(model) == 0
        # The intercept still over-predicts per the asymmetry: with
        # alpha = 10 the optimal constant sits above the median.
        assert under_rate(model, X, y) <= 0.5
