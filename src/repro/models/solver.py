"""Convex solver for the paper's asymmetric Lasso objective.

The execution-time model is fit by minimizing (paper §3.3):

    F(beta) = ||pos(X beta - y)||^2  +  alpha * ||neg(X beta - y)||^2
              + gamma * ||beta||_1

where ``pos``/``neg`` split the residual into over- and under-prediction,
``alpha > 1`` penalizes under-prediction (which causes deadline misses)
more than over-prediction (which merely wastes energy), and the L1 term
drives coefficients to exactly zero so the prediction slice can skip
computing those features.

The objective is convex: the smooth part is a piecewise quadratic with
Lipschitz-continuous gradient, and the L1 term is handled by proximal
(soft-threshold) steps.  We solve it with FISTA (accelerated proximal
gradient), which needs nothing beyond numpy.

The problems are small (a few hundred rows, a few dozen columns), so a
FISTA step costs what its numpy calls cost to dispatch, not what they
compute.  The loop makes about 20 calls a step while keeping every float
operation of the plain step, on the same operands: the weighted residual
takes ``alpha * r`` or ``r`` with one min/max (exact; see the loop), the
penalized positions and their thresholds are looked up once per fit,
``new_beta - beta`` is formed once, in-place products and sums only swap
the operands of a commutative operation, and both norms are the square
root of the ``x.dot(x)`` that ``np.linalg.norm`` computes.  The scalars
enter as 0-d float64 arrays, which numpy multiplies as it does a Python
float but without converting one at every call.  The momentum
coefficients ``(t_k - 1) / t_{k+1}`` depend only on ``k``, so they are
computed once per ``max_iter`` (:func:`_momentum_coefficients`) instead
of with numpy scalars at every step.  They keep the recurrence's ``t**2``:
Python's float power gives the same bits as numpy's scalar power, and
``t*t`` does not at every step.

Targets that share ``X`` and the options, such as the fmax and fmin
anchor models (paper §3.4), run through one loop
(:func:`solve_asymmetric_lasso_stack`; a single fit is the one-target
case).  Each iterate is a stack of k C-contiguous ``(n_features, 1)``
columns.  An elementwise call does to every row what the one-target step
does to its vector, and numpy's matmul loops over the rows, calling for
each the BLAS routine that the one-target product calls, on the same
strides: gemv for ``X @ B`` and ``X.T @ W``, and ``DOUBLE_dot``, the
routine behind ``x.dot(x)``, for the norms, which ``np.vecdot`` takes row
by row.  One stack holds the changes and the new betas, so one call gives
every ``||change||^2`` and every ``||new_beta||^2``, the next step's
scale.  So each row keeps the bits of its own fit.

- *Contiguity.*  numpy picks the BLAS path from the strides, so every
  stacked row must be C-contiguous like the one-target vector: a stack
  cut down by a fancy index, which need not be C-ordered, is copied.
- *Retirement.*  A row stops at the step where its own ``delta / scale``
  falls below ``tol``, with its own ``n_iter`` and ``converged``; the
  other rows go on as a smaller stack.  Rows still running at
  ``max_iter`` stop there unconverged.

The contract is bit identity with the plain loop: the same ``beta``
bytes (signed zeros included), ``n_iter``, ``converged`` and
``objective``, for every row of every stack.
``tests/models/reference_solver.py`` keeps that loop, and
``tests/models/test_solver_differential.py`` holds the two to it.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from repro.checks import check_number

__all__ = [
    "SolverResult",
    "asymmetric_lasso_objective",
    "solve_asymmetric_lasso",
    "solve_asymmetric_lasso_stack",
]


@dataclass(frozen=True)
class SolverResult:
    """Solution of one fit.

    Attributes:
        beta: Coefficient vector.
        objective: Final objective value F(beta).
        n_iter: Iterations actually used.
        converged: Whether the relative-change tolerance was met.
    """

    beta: np.ndarray
    objective: float
    n_iter: int
    converged: bool


def asymmetric_lasso_objective(
    X: np.ndarray,
    y: np.ndarray,
    beta: np.ndarray,
    alpha: float,
    gamma: float,
    penalty_mask: np.ndarray | None = None,
    gamma_weights: np.ndarray | None = None,
) -> float:
    """Evaluate F(beta); used for tests and convergence diagnostics."""
    residual = X @ beta - y
    over = np.maximum(residual, 0.0)
    under = np.maximum(-residual, 0.0)
    weights = (
        np.ones(beta.shape[0])
        if gamma_weights is None
        else np.asarray(gamma_weights, dtype=float)
    )
    weighted = np.abs(beta) * weights
    if penalty_mask is None:
        l1 = weighted.sum()
    else:
        l1 = weighted[penalty_mask].sum()
    return float(over @ over + alpha * (under @ under) + gamma * l1)


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
        The fitted coefficients and solver diagnostics: the one-target
        case of :func:`solve_asymmetric_lasso_stack`.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"y shape {y.shape} incompatible with X {np.shape(X)}")
    (result,) = solve_asymmetric_lasso_stack(
        X,
        y.reshape(1, -1),
        alpha=alpha,
        gamma=gamma,
        penalty_mask=penalty_mask,
        max_iter=max_iter,
        tol=tol,
        gamma_weights=gamma_weights,
    )
    return result


def solve_asymmetric_lasso_stack(
    X: np.ndarray,
    Y: np.ndarray,
    alpha: float = 100.0,
    gamma: float = 0.0,
    penalty_mask: np.ndarray | None = None,
    max_iter: int = 5000,
    tol: float = 1e-9,
    gamma_weights: np.ndarray | None = None,
) -> tuple[SolverResult, ...]:
    """Minimize the asymmetric Lasso objective for each row of ``Y``.

    One FISTA loop runs every target at once on the shared ``X`` and
    options; each result is the one :func:`solve_asymmetric_lasso` gives
    for that target alone, bit for bit (see the module docstring).

    Args:
        X: (n_samples, n_features) design matrix.
        Y: (n_targets, n_samples) targets, one row per fit.
        alpha, gamma, penalty_mask, max_iter, tol, gamma_weights: As for
            :func:`solve_asymmetric_lasso`, shared by every target.

    Returns:
        One result per row of ``Y``, in order.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if Y.ndim != 2 or Y.shape[0] == 0 or Y.shape[1] != X.shape[0]:
        raise ValueError(
            f"targets of shape {Y.shape} incompatible with X {X.shape}"
        )
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty design matrix")
    if not np.isfinite(X).all():
        raise ValueError("X must hold only finite values")
    if not np.isfinite(Y).all():
        raise ValueError("y must hold only finite values")
    owner = "solve_asymmetric_lasso"
    if check_number(owner, "alpha", alpha) <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if check_number(owner, "gamma", gamma) < 0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    if check_number(owner, "tol", tol) < 0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    if check_number(owner, "max_iter", max_iter, count=True) < 1:
        raise ValueError(f"max_iter must be positive, got {max_iter}")
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
        if not np.isfinite(gamma_weights).all():
            raise ValueError("gamma_weights must hold only finite values")
        if np.any(gamma_weights < 0):
            raise ValueError("gamma_weights must be non-negative")

    def result(target: int, beta: np.ndarray, n_iter: int, converged: bool):
        return SolverResult(
            beta=beta,
            objective=asymmetric_lasso_objective(
                X, Y[target], beta, alpha, gamma, penalty_mask, gamma_weights
            ),
            n_iter=n_iter,
            converged=converged,
        )

    n_targets = Y.shape[0]

    # Lipschitz constant of the smooth gradient: 2 * max(1, alpha) * sigma_max(X)^2.
    sigma_max = _spectral_norm(X)
    lipschitz = 2.0 * max(1.0, alpha) * sigma_max**2
    if lipschitz == 0.0:
        # X is all zeros; the optimum is beta = 0.
        return tuple(
            result(target, np.zeros(n_features), 0, True)
            for target in range(n_targets)
        )
    step = 1.0 / lipschitz
    penalized = np.flatnonzero(penalty_mask)
    shrink = gamma > 0 and penalized.size > 0
    # A contiguous range (every column but the intercept, in the
    # pipeline) reads as a view, so the shrunk values land in place.
    in_place = shrink and penalized[-1] - penalized[0] + 1 == penalized.size
    # Shaped to the stack, so that no step broadcasts.
    thresholds = np.repeat(
        (gamma * step * gamma_weights)[penalized].reshape(1, -1, 1),
        n_targets,
        axis=0,
    )
    if in_place:
        penalized = slice(penalized[0], penalized[-1] + 1)

    # The weighted residual is alpha * r where r < 0 and r elsewhere.
    # Rounding is monotone, so for alpha >= 1 the rounded alpha * r is
    # the smaller of (r, alpha * r) where r < 0 and the larger where
    # r >= 0 (the other way round for alpha < 1); min/max returns the
    # chosen value unchanged, and the two are equal, signed zeros
    # included, wherever they tie.  That is two cheap calls where a
    # masked multiply costs more than both.
    select = np.minimum if alpha >= 1.0 else np.maximum
    absolute, maximum, multiply, sign = np.abs, np.maximum, np.multiply, np.sign
    subtract, vecdot, sqrt = np.subtract, np.vecdot, math.sqrt
    # The scalars as 0-d float64 arrays: the same products, without
    # numpy converting a Python number at every call.
    alpha_, two, step_, zero = (
        np.array(float(value)) for value in (alpha, 2.0, step, 0.0)
    )
    momentum_coefficient = np.empty(())
    X_t = X.T
    targets = Y.reshape(n_targets, -1, 1)
    live = list(range(n_targets))  # the target each stack row fits
    scales = [1e-12] * n_targets  # max(||beta||, 1e-12); beta starts at 0
    fits: list[SolverResult | None] = [None] * n_targets
    previous = _iterates(np.zeros((2, n_targets, n_features, 1)))
    current = _iterates(np.empty_like(previous[0]))
    iterations = 0
    for iterations, coefficient in enumerate(
        _momentum_coefficients(max_iter), 1
    ):
        _, momentum, beta, _ = previous
        stack, change, new_beta, rows = current
        # Gradient of the smooth part: 2 X^T (w * r), w = 1 where r >= 0
        # and alpha where r < 0.
        residual = X @ momentum
        residual -= targets
        gradient = X_t @ select(residual, residual * alpha_)
        gradient *= two
        gradient *= step_
        subtract(momentum, gradient, out=new_beta)
        if shrink:
            candidate = new_beta[:, penalized]
            shrunk = absolute(candidate)
            shrunk -= thresholds
            maximum(shrunk, zero, out=shrunk)
            if in_place:
                multiply(shrunk, sign(candidate), out=candidate)
            else:
                shrunk *= sign(candidate)
                new_beta[:, penalized] = shrunk
        subtract(new_beta, beta, out=change)
        # ||change||^2 of every row, then ||new_beta||^2 of every row,
        # which scales its next step.
        squares = vecdot(rows, rows).tolist()
        n_live = len(live)
        retired = []
        for row in range(n_live):
            if sqrt(squares[row]) / scales[row] < tol:
                retired.append(row)
            scales[row] = max(sqrt(squares[n_live + row]), 1e-12)
        momentum_coefficient[()] = coefficient
        change *= momentum_coefficient
        change += new_beta
        if retired:
            for row in retired:
                beta = new_beta[row, :, 0].copy()
                fits[live[row]] = result(live[row], beta, iterations, True)
            kept = [row for row in range(n_live) if row not in retired]
            if not kept:
                break
            live = [live[row] for row in kept]
            scales = [scales[row] for row in kept]
            targets = targets[kept]
            thresholds = thresholds[: len(kept)]
            # A copy in C order: the fancy index alone may not be.
            current = _iterates(stack[:, kept].copy())
            previous = _iterates(np.empty_like(current[0]))
        previous, current = current, previous
    else:
        _, _, betas, _ = previous
        for row, target in enumerate(live):
            beta = betas[row, :, 0].copy()
            fits[target] = result(target, beta, iterations, False)
    return tuple(fits)


def _iterates(stack: np.ndarray) -> tuple[np.ndarray, ...]:
    """A (2, k, n_features, 1) stack of FISTA iterates and its views:
    the momenta (or changes), the betas, and all 2k vectors as rows.

    Every (n_features, 1) column is C-contiguous, as a one-target
    vector is, so each stacked product takes the same BLAS path.
    """
    return stack, stack[0], stack[1], stack.reshape(-1, stack.shape[2])


@functools.lru_cache(maxsize=4)
def _momentum_coefficients(max_iter: int) -> array:
    """FISTA's momentum coefficients ``(t_k - 1) / t_{k+1}``, k = 1..max_iter,
    with ``t_1 = 1`` and ``t_{k+1} = (1 + sqrt(1 + 4 t_k**2)) / 2``.

    Held as packed doubles (8 bytes each, not a float object each); do
    not modify the returned array, which the cache shares.
    """
    coefficients = array("d")
    t_accel = 1.0
    for _ in range(max_iter):
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t_accel**2)) / 2.0
        coefficients.append((t_accel - 1.0) / t_next)
        t_accel = t_next
    return coefficients


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
        norm = math.sqrt(w.dot(w))
        if norm == 0.0:
            return 0.0
        w /= norm
        v = w
        eig = norm
    return math.sqrt(eig)
