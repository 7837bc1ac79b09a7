"""The FISTA loop as it was before its per-step numpy calls were cut,
kept as a differential reference.

:func:`solve_asymmetric_lasso` and :func:`_spectral_norm` below are the
package's solver verbatim from before the rewrite in
:mod:`repro.models.solver`, which must return the same ``beta`` bytes
(signed zeros included), ``n_iter``, ``converged`` and ``objective`` on
every problem.  ``tests/models/test_solver_differential.py`` runs the two
side by side.  Only the argument checks of the time are here; the
package's solver rejects more.
"""

from __future__ import annotations

import numpy as np

from repro.models.solver import SolverResult, asymmetric_lasso_objective

__all__ = ["solve_asymmetric_lasso"]


def solve_asymmetric_lasso(
    X: np.ndarray,
    y: np.ndarray,
    alpha: float = 100.0,
    gamma: float = 0.0,
    penalty_mask: np.ndarray | None = None,
    max_iter: int = 5000,
    tol: float = 1e-9,
    gamma_weights: np.ndarray | None = None,
) -> SolverResult:
    """Minimize the asymmetric Lasso objective with FISTA.

    Args:
        X: (n_samples, n_features) design matrix.
        y: (n_samples,) targets.
        alpha: Under-prediction penalty weight (>= 1 in practice; the
            paper sweeps {1, 10, 100, 1000} and settles on 100).
        gamma: L1 sparsity weight (>= 0).
        penalty_mask: Boolean mask of coefficients the L1 term applies to;
            use it to leave the intercept column unpenalized.  ``None``
            penalizes everything.
        max_iter: Iteration cap.
        tol: Relative change in beta below which we stop.
        gamma_weights: Optional per-coefficient L1 multipliers, realizing
            the paper's §3.5 idea of penalizing features by their
            generation overhead: expensive features need proportionally
            more explanatory power to earn a place in the model.

    Returns:
        The fitted coefficients and solver diagnostics.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise ValueError(f"y shape {y.shape} incompatible with X {X.shape}")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty design matrix")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if gamma < 0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    n_features = X.shape[1]
    if penalty_mask is None:
        penalty_mask = np.ones(n_features, dtype=bool)
    else:
        penalty_mask = np.asarray(penalty_mask, dtype=bool)
        if penalty_mask.shape != (n_features,):
            raise ValueError("penalty_mask length must equal feature count")
    if gamma_weights is None:
        gamma_weights = np.ones(n_features)
    else:
        gamma_weights = np.asarray(gamma_weights, dtype=float)
        if gamma_weights.shape != (n_features,):
            raise ValueError("gamma_weights length must equal feature count")
        if np.any(gamma_weights < 0):
            raise ValueError("gamma_weights must be non-negative")

    # Lipschitz constant of the smooth gradient: 2 * max(1, alpha) * sigma_max(X)^2.
    sigma_max = _spectral_norm(X)
    lipschitz = 2.0 * max(1.0, alpha) * sigma_max**2
    if lipschitz == 0.0:
        # X is all zeros; the optimum is beta = 0.
        beta = np.zeros(n_features)
        return SolverResult(
            beta=beta,
            objective=asymmetric_lasso_objective(
                X, y, beta, alpha, gamma, penalty_mask, gamma_weights
            ),
            n_iter=0,
            converged=True,
        )
    step = 1.0 / lipschitz
    thresholds = gamma * step * gamma_weights

    beta = np.zeros(n_features)
    momentum = beta.copy()
    t_accel = 1.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        residual = X @ momentum - y
        weights = np.where(residual >= 0.0, 1.0, alpha)
        gradient = 2.0 * (X.T @ (weights * residual))
        candidate = momentum - step * gradient
        new_beta = candidate.copy()
        if gamma > 0:
            penalized = candidate[penalty_mask]
            new_beta[penalty_mask] = np.sign(penalized) * np.maximum(
                np.abs(penalized) - thresholds[penalty_mask], 0.0
            )
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_accel**2)) / 2.0
        momentum = new_beta + ((t_accel - 1.0) / t_next) * (new_beta - beta)
        delta = np.linalg.norm(new_beta - beta)
        scale = max(np.linalg.norm(beta), 1e-12)
        beta = new_beta
        t_accel = t_next
        if delta / scale < tol:
            converged = True
            break

    return SolverResult(
        beta=beta,
        objective=asymmetric_lasso_objective(
            X, y, beta, alpha, gamma, penalty_mask, gamma_weights
        ),
        n_iter=iterations,
        converged=converged,
    )


def _spectral_norm(X: np.ndarray, n_iter: int = 100) -> float:
    """Largest singular value of X via power iteration on X^T X."""
    n_features = X.shape[1]
    if n_features == 0:
        return 0.0
    gram = X.T @ X
    # Deterministic start vector keeps fits reproducible.
    v = np.ones(n_features) / np.sqrt(n_features)
    eig = 0.0
    for _ in range(n_iter):
        w = gram @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        eig = norm
    return float(np.sqrt(eig))
