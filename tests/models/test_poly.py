"""Tests for the polynomial feature expansion."""

import numpy as np
import pytest

from repro.models.poly import PolynomialExpansion


class TestFitValidation:
    def test_unsupported_degree(self):
        with pytest.raises(ValueError):
            PolynomialExpansion(degree=3)

    def test_use_before_fit(self):
        with pytest.raises(RuntimeError):
            PolynomialExpansion().transform(np.ones((1, 2)))

    def test_bad_column_count(self):
        with pytest.raises(ValueError):
            PolynomialExpansion().fit(0)

    def test_shape_mismatch_rejected(self):
        exp = PolynomialExpansion().fit(3)
        with pytest.raises(ValueError):
            exp.transform(np.ones((2, 4)))


class TestTermLayout:
    def test_degree_one_is_identity_terms(self):
        exp = PolynomialExpansion(degree=1).fit(3)
        assert exp.terms == [(0,), (1,), (2,)]
        assert exp.n_terms == 3

    def test_degree_two_term_count(self):
        # n singletons + n(n+1)/2 products.
        exp = PolynomialExpansion(degree=2).fit(4)
        assert exp.n_terms == 4 + 10

    def test_degree_two_terms_include_squares_and_products(self):
        exp = PolynomialExpansion(degree=2).fit(2)
        assert (0, 0) in exp.terms
        assert (0, 1) in exp.terms
        assert (1, 1) in exp.terms


class TestTransform:
    def test_degree_one_is_identity(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        exp = PolynomialExpansion(degree=1).fit(2)
        assert np.array_equal(exp.transform(X), X)

    def test_degree_two_values(self):
        X = np.array([[2.0, 3.0]])
        exp = PolynomialExpansion(degree=2).fit(2)
        out = exp.transform(X)[0]
        # [x0, x1, x0^2, x0*x1, x1^2]
        assert out.tolist() == [2.0, 3.0, 4.0, 6.0, 9.0]

    def test_transform_one(self):
        exp = PolynomialExpansion(degree=2).fit(2)
        assert exp.transform_one(np.array([2.0, 3.0])).tolist() == [
            2.0, 3.0, 4.0, 6.0, 9.0,
        ]


class TestBaseMask:
    def test_selected_product_pulls_both_columns(self):
        exp = PolynomialExpansion(degree=2).fit(3)
        term_mask = [t == (0, 2) for t in exp.terms]
        mask = exp.base_mask(term_mask)
        assert mask.tolist() == [True, False, True]

    def test_nothing_selected(self):
        exp = PolynomialExpansion(degree=2).fit(2)
        assert not exp.base_mask([False] * exp.n_terms).any()

    def test_wrong_length_rejected(self):
        exp = PolynomialExpansion(degree=2).fit(2)
        with pytest.raises(ValueError):
            exp.base_mask([True])


class TestEndToEndQuadraticRecovery:
    def test_degree_two_fits_quadratic_relationship(self):
        """A genuinely quadratic cost (nested loops over n) defeats the
        linear model but not the expanded one."""
        from repro.models.asymmetric import AsymmetricLassoModel
        from tests.models.lasso_fit import fit, predict

        rng = np.random.default_rng(0)
        n = rng.uniform(1, 30, 300).reshape(-1, 1)
        y = 3.0 * (n[:, 0] ** 2) + 5.0 * n[:, 0] + rng.normal(0, 1.0, 300)

        linear = fit(AsymmetricLassoModel(alpha=1.0), n, y)
        linear_err = np.abs(predict(linear, n) - y).mean()

        exp = PolynomialExpansion(degree=2).fit(1)
        quad = fit(AsymmetricLassoModel(alpha=1.0), exp.transform(n), y)
        quad_err = np.abs(predict(quad, exp.transform(n)) - y).mean()

        assert quad_err < linear_err / 5
