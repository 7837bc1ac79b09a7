"""The asymmetric Lasso execution-time model.

Wraps the FISTA solver with the practical details of a usable estimator:
an unpenalized intercept, internal column standardization (so the L1
weight means the same thing for a 0/1 one-hot column and a 10^5-iteration
loop counter), and the selected-feature mask that drives program slicing.
"""

from __future__ import annotations

import numpy as np

from repro.models.solver import SolverResult, solve_asymmetric_lasso

__all__ = ["AsymmetricLassoModel", "lasso_time"]


def lasso_time(x: np.ndarray, coef: np.ndarray, intercept: float) -> float:
    """``x @ coef + intercept`` for one float feature vector ``x``.

    The product is evaluated as a ``(1, n) @ (n,)`` matrix product, which
    need not equal a 1-D dot product in the last bit; the intercept is
    then one float64 addition, the same whether numpy or Python does it.
    This is the only copy of the expression:
    :meth:`AsymmetricLassoModel.predict_one` and decision replay
    (:func:`repro.telemetry.provenance.predict_anchor`) both call it, so
    a replayed prediction matches the live one bit for bit.
    """
    return float((x.reshape(1, -1) @ coef)[0]) + intercept


class AsymmetricLassoModel:
    """Linear model fit with the over/under-asymmetric Lasso objective.

    Attributes:
        alpha: Under-prediction penalty weight (paper default: 100).
        gamma: L1 sparsity weight; 0 disables feature selection.
        coef_: Fitted coefficients in *original* feature units.
        intercept_: Fitted intercept.
    """

    def __init__(
        self,
        alpha: float = 100.0,
        gamma: float = 0.0,
        max_iter: int = 5000,
        tol: float = 1e-9,
    ):
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {gamma}")
        self.alpha = alpha
        self.gamma = gamma
        self.max_iter = max_iter
        self.tol = tol
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.solver_result_: SolverResult | None = None

    @property
    def is_fitted(self) -> bool:
        return self.coef_ is not None

    @classmethod
    def from_coefficients(
        cls,
        coef: np.ndarray,
        intercept: float,
        alpha: float = 100.0,
        gamma: float = 0.0,
    ) -> "AsymmetricLassoModel":
        """Rebuild a fitted model from stored coefficients (§4.2:
        developers distribute trained coefficients with the program)."""
        model = cls(alpha=alpha, gamma=gamma)
        model.coef_ = np.asarray(coef, dtype=float)
        model.intercept_ = float(intercept)
        return model

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        gamma_weights: np.ndarray | None = None,
    ) -> "AsymmetricLassoModel":
        """Fit coefficients to profiled (features, time) pairs.

        Columns are standardized internally; a zero-variance column can
        never earn a coefficient (it is indistinguishable from the
        intercept), which also keeps the solver well-conditioned.

        Args:
            X: (n_samples, n_features) feature matrix.
            y: (n_samples,) profiled times.
            gamma_weights: Optional per-feature L1 multipliers (cost-aware
                selection, paper §3.5): a feature with weight w needs w
                times the explanatory power to survive.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ValueError(f"incompatible shapes X{X.shape}, y{y.shape}")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on empty data")

        means = X.mean(axis=0)
        scales = X.std(axis=0)
        live = scales > 1e-12
        safe_scales = np.where(live, scales, 1.0)
        X_std = (X - means) / safe_scales
        X_std[:, ~live] = 0.0

        design = np.hstack([X_std, np.ones((X.shape[0], 1))])
        penalty_mask = np.append(np.ones(X.shape[1], dtype=bool), False)
        weights = None
        if gamma_weights is not None:
            weights = np.append(np.asarray(gamma_weights, dtype=float), 1.0)
        result = solve_asymmetric_lasso(
            design,
            y,
            alpha=self.alpha,
            gamma=self.gamma,
            penalty_mask=penalty_mask,
            max_iter=self.max_iter,
            tol=self.tol,
            gamma_weights=weights,
        )
        std_coef = result.beta[:-1]
        std_coef[~live] = 0.0
        self.coef_ = std_coef / safe_scales
        self.intercept_ = float(result.beta[-1] - (self.coef_ * means).sum())
        self.solver_result_ = result
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted times for rows of ``X``."""
        if self.coef_ is None:
            raise RuntimeError("AsymmetricLassoModel used before fit()")
        X = np.asarray(X, dtype=float)
        return X @ self.coef_ + self.intercept_

    def predict_one(self, x: np.ndarray) -> float:
        """Predicted time for a single feature vector."""
        if self.coef_ is None:
            raise RuntimeError("AsymmetricLassoModel used before fit()")
        return lasso_time(np.asarray(x, dtype=float), self.coef_, self.intercept_)

    def selected_mask(self, threshold: float = 1e-12) -> np.ndarray:
        """Boolean mask of features with non-zero coefficients.

        Sites behind all-False columns can be dropped from the prediction
        slice — the coupling between the Lasso and slicing (paper §4.2).
        """
        if self.coef_ is None:
            raise RuntimeError("AsymmetricLassoModel used before fit()")
        return np.abs(self.coef_) > threshold

    @property
    def n_selected(self) -> int:
        return int(self.selected_mask().sum())
