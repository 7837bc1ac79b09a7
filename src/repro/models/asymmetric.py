"""The asymmetric Lasso execution-time model.

Wraps the FISTA solver with the practical details of a usable estimator:
an unpenalized intercept, internal column standardization (so the L1
weight means the same thing for a 0/1 one-hot column and a 10^5-iteration
loop counter), and the selected-feature mask that drives program slicing.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.checks import check_number
from repro.models.solver import SolverResult, solve_asymmetric_lasso_stack

__all__ = ["AsymmetricLassoModel", "fit_models", "lasso_time"]

#: Step-size tolerance of the FISTA fit (see
#: :func:`~repro.models.solver.solve_asymmetric_lasso`).
FIT_TOL = 1e-9


def lasso_time(row: np.ndarray, coef: np.ndarray, intercept: float) -> float:
    """``row @ coef + intercept`` for one float feature vector, passed as
    a ``(1, n)`` row (``x.reshape(1, -1)``).

    The product is evaluated as a ``(1, n) @ (n,)`` matrix product, which
    need not equal a 1-D dot product in the last bit; the intercept is
    then one float64 addition, the same whether numpy or Python does it.
    This is the only copy of the expression:
    :meth:`AsymmetricLassoModel.predict_one`, the two anchors of
    :meth:`~repro.models.timing.ExecutionTimePredictor.predict` (one row
    for both) and decision replay
    (:func:`repro.telemetry.provenance.predict_anchor`) all call it, so
    a replayed prediction matches the live one bit for bit.
    """
    return float((row @ coef)[0]) + intercept


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
    ):
        owner = "AsymmetricLassoModel"
        if check_number(owner, "alpha", alpha) <= 0:
            raise ValueError(f"{owner}: alpha must be positive, got {alpha}")
        if check_number(owner, "gamma", gamma) < 0:
            raise ValueError(
                f"{owner}: gamma must be non-negative, got {gamma}"
            )
        self.alpha = alpha
        self.gamma = gamma
        self.max_iter = max_iter
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
        developers distribute trained coefficients with the program).

        Raises:
            ValueError: naming the argument, for a coefficient or an
                intercept that is not finite, or a bad ``alpha``/``gamma``.
        """
        model = cls(alpha=alpha, gamma=gamma)
        owner = "AsymmetricLassoModel"
        coef = np.asarray(coef, dtype=float)
        bad = np.flatnonzero(~np.isfinite(coef))
        if bad.size:
            i, value = int(bad[0]), float(coef[bad[0]])
            raise ValueError(
                f"{owner}: coef[{i}] must be a finite number, got {value!r}"
            )
        model.coef_ = coef
        model.intercept_ = float(check_number(owner, "intercept", intercept))
        return model

    def predict_one(self, x: np.ndarray) -> float:
        """Predicted time for a single feature vector."""
        if self.coef_ is None:
            raise RuntimeError("AsymmetricLassoModel used before fit()")
        row = np.asarray(x, dtype=float).reshape(1, -1)
        return lasso_time(row, self.coef_, self.intercept_)

    def selected_mask(self, threshold: float = 1e-12) -> np.ndarray:
        """Boolean mask of features with non-zero coefficients.

        Sites behind all-False columns can be dropped from the prediction
        slice — the coupling between the Lasso and slicing (paper §4.2).
        """
        if self.coef_ is None:
            raise RuntimeError("AsymmetricLassoModel used before fit()")
        return np.abs(self.coef_) > threshold


def fit_models(
    models: Sequence[AsymmetricLassoModel],
    X: np.ndarray,
    targets: Sequence[np.ndarray],
    gamma_weights: np.ndarray | None = None,
) -> None:
    """Fit ``models[i]`` to ``targets[i]``, all on the same ``X``.

    ``X`` is standardized once and every target is fit in one stacked
    solve (:func:`~repro.models.solver.solve_asymmetric_lasso_stack`), so
    each model ends up as a fit of its own would leave it, bit for bit.
    The models must share ``alpha``, ``gamma`` and ``max_iter``.

    Columns are standardized internally; a zero-variance column can
    never earn a coefficient (it is indistinguishable from the
    intercept), which also keeps the solver well-conditioned.
    ``gamma_weights`` are optional per-feature L1 multipliers (cost-aware
    selection, paper §3.5): a feature with weight w needs w times the
    explanatory power to survive.
    """
    X = np.asarray(X, dtype=float)
    ys = [np.asarray(y, dtype=float) for y in targets]
    if len(ys) != len(models) or not models:
        raise ValueError(
            f"need one target per model, got {len(ys)} for {len(models)}"
        )
    for y in ys:
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ValueError(f"incompatible shapes X{X.shape}, y{y.shape}")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on empty data")
    first = models[0]
    if len({(m.alpha, m.gamma, m.max_iter) for m in models}) != 1:
        raise ValueError("models fit together must share alpha, gamma, max_iter")

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
    results = solve_asymmetric_lasso_stack(
        design,
        np.stack(ys),
        alpha=first.alpha,
        gamma=first.gamma,
        penalty_mask=penalty_mask,
        max_iter=first.max_iter,
        tol=FIT_TOL,
        gamma_weights=weights,
    )
    for model, result in zip(models, results):
        std_coef = result.beta[:-1]
        std_coef[~live] = 0.0
        # A new contiguous array: lasso_time's product dispatches on the
        # strides of coef_.
        model.coef_ = std_coef / safe_scales
        model.intercept_ = float(
            result.beta[-1] - (model.coef_ * means).sum()
        )
        model.solver_result_ = result
