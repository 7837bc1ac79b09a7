"""Incremental recalibration of the execution-time model.

The offline pipeline fits the asymmetric Lasso once (paper Fig. 13); at
run time this module keeps those coefficients honest with exponentially
weighted recursive least squares (RLS) on the same slice features.  Two
paper ideas carry over into the online setting:

- The **asymmetric penalty** (paper §3.3) is approximated by per-sample
  weighting: a job the current model under-predicted enters the RLS
  update with weight ``under_weight`` (> 1), so corrections that prevent
  deadline misses happen much faster than corrections that merely save
  energy.  This is the standard iteratively-reweighted view of the
  asymmetric quadratic loss, restricted to one pass because samples
  stream by exactly once.
- The **safety margin** (paper §3.4, fixed at 10%) becomes adaptive:
  :class:`AdaptiveMargin` widens multiplicatively when jobs miss and
  decays slowly toward a floor while the observed miss rate sits below
  target — a classic AIMD loop on the margin knob.

Sparsity is *not* revisited online: the slice was generated from the
offline support, so the online model can only reweight features the
slice still computes.  That is the right trade-off — re-slicing requires
the offline pipeline anyway.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.online.residuals import Ewma

__all__ = [
    "RecursiveLeastSquares",
    "OnlineAnchorModel",
    "AdaptiveMargin",
    "warm_start_time",
    "recalibrated_time",
    "design_row",
]

#: Smoothed miss rate the margin loop aims for; below it the margin may
#: shrink.
TARGET_MISS_RATE = 0.02
#: Multiplicative widening of the margin per missed job.
WIDEN_FACTOR = 1.4
#: Geometric shrink of the margin per compliant job.
DECAY = 0.995
#: Smoothing weight of the miss-rate EWMA.
MISS_ALPHA = 0.05


# The two expressions OnlineAnchorModel.predict_one evaluates.  Decision
# replay (repro.telemetry.provenance.predict_anchor) calls the same
# functions, so a replayed prediction matches the live one bit for bit.
def warm_start_time(x: np.ndarray, coef: np.ndarray, intercept: float) -> float:
    """Anchor time before the first RLS update: the offline
    coefficients as a 1-D dot product."""
    return float(x @ coef + intercept)


def recalibrated_time(row: np.ndarray, theta: np.ndarray) -> float:
    """Anchor time once RLS is live: ``theta`` over the design row
    (:func:`design_row`)."""
    return float(row @ theta)


def design_row(x: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Scaled features with the intercept column appended."""
    n = scales.shape[0]
    row = np.empty(n + 1)
    np.divide(x, scales, out=row[:n])
    row[n] = 1.0
    return row


class RecursiveLeastSquares:
    """Exponentially-weighted RLS with per-sample observation weights.

    Standard RLS recursion with forgetting factor ``lam``; a sample
    weight ``w`` enters as an effective noise variance of ``1/w``, i.e.
    the gain denominator uses ``lam / w`` — exactly what batch weighted
    least squares with weight ``w`` on that row would do.

    Args:
        theta0: Starting coefficient vector (includes whatever columns
            the caller puts in ``x`` — the anchor model appends an
            intercept); :attr:`theta` holds the current one.
        lam: Forgetting factor.
        p0: Initial covariance scale.  Small values trust the warm-start
            coefficients; large values let early samples move them fast.
    """

    def __init__(self, theta0: np.ndarray, lam: float = 0.98, p0: float = 0.05):
        if not 0.0 < lam <= 1.0:
            raise ValueError(f"forgetting factor must be in (0, 1], got {lam}")
        if p0 <= 0:
            raise ValueError(f"p0 must be positive, got {p0}")
        self.theta = np.asarray(theta0, dtype=float).copy()
        self.lam = lam
        self._P = p0 * np.eye(self.theta.shape[0])
        self.n_updates = 0

    def predict(self, x: np.ndarray) -> float:
        return float(x @ self.theta)

    def update(self, x: np.ndarray, y: float, weight: float = 1.0) -> float:
        """Fold one (x, y) sample in; returns the pre-update residual."""
        error = float(y) - float(x @ self.theta)
        self.fold(x, error, weight)
        return error

    def fold(self, x: np.ndarray, error: float, weight: float = 1.0) -> None:
        """Fold in one sample whose pre-update residual ``y - x @ theta``
        is ``error`` (what :meth:`update` computes)."""
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        P = self._P
        px = P @ x
        denom = self.lam / weight + float(x @ px)
        gain = px / denom
        self.theta = self.theta + gain * error
        # gain[:, None] * px is np.outer(gain, px), product for product.
        P = (P - gain[:, None] * px) / self.lam
        # Symmetrize: the recursion is symmetric in exact arithmetic but
        # floating point slowly breaks it, which can turn P indefinite.
        P = P + P.T
        P *= 0.5
        self._P = P
        self.n_updates += 1


class OnlineAnchorModel:
    """One anchor-frequency execution-time model, updatable per job.

    Wraps :class:`RecursiveLeastSquares` with the two practical details
    the offline :class:`~repro.models.asymmetric.AsymmetricLassoModel`
    also handles: an intercept column, and per-feature scaling so loop
    counters in the hundreds and 0/1 one-hot columns condition the
    covariance equally.  Scales are frozen on the first update (from that
    sample's magnitudes), keeping the coefficient basis stable.

    Args:
        coef: Warm-start coefficients in original feature units (from the
            offline fit).
        intercept: Warm-start intercept.
        lam: RLS forgetting factor; 0.98 remembers ~50 jobs.
        p0: Initial covariance scale (trust in the offline fit).
        under_weight: Sample weight when the current model under-predicts
            the observed time — the online stand-in for the paper's
            asymmetric penalty alpha.
    """

    def __init__(
        self,
        coef: np.ndarray,
        intercept: float,
        lam: float = 0.98,
        p0: float = 0.05,
        under_weight: float = 25.0,
    ):
        if under_weight < 1.0:
            raise ValueError(
                f"under_weight must be >= 1 (got {under_weight}); values "
                "below 1 would make energy waste more urgent than misses"
            )
        self.offline_coef = np.asarray(coef, dtype=float).copy()
        self.offline_intercept = float(intercept)
        self.lam = lam
        self.p0 = p0
        self.under_weight = under_weight
        self._scales: np.ndarray | None = None
        self._rls: RecursiveLeastSquares | None = None

    @property
    def n_features(self) -> int:
        return int(self.offline_coef.shape[0])

    @property
    def n_updates(self) -> int:
        return 0 if self._rls is None else self._rls.n_updates

    def _ensure_initialized(self, x: np.ndarray) -> None:
        if self._rls is not None:
            return
        self._scales = np.maximum(np.abs(x), 1.0)
        theta0 = np.append(
            self.offline_coef * self._scales, self.offline_intercept
        )
        self._rls = RecursiveLeastSquares(theta0, lam=self.lam, p0=self.p0)

    def design(self, x: np.ndarray) -> np.ndarray | None:
        """``x``'s design row under the frozen scales (:func:`design_row`);
        None before the first update, when no scales are frozen."""
        scales = self._scales
        return None if scales is None else design_row(x, scales)

    def snapshot(self) -> dict[str, Any]:
        """The exact coefficients :meth:`predict_one` would use now, as
        a plain dict (shaped like
        :class:`~repro.telemetry.audit.AnchorSnapshot`).  Two kinds
        because the two code paths of :meth:`predict_one` are distinct
        floating-point expressions: ``online-pre`` before the first
        update (warm-start coefficients, 1-D dot) and ``online`` once
        RLS is live (design-space theta over frozen scales)."""
        if self._rls is None:
            return {
                "kind": "online-pre",
                "coef": self.offline_coef.tolist(),
                "intercept": self.offline_intercept,
                "scales": None,
            }
        assert self._scales is not None
        return {
            "kind": "online",
            "coef": self._rls.theta.tolist(),
            "intercept": 0.0,
            "scales": self._scales.tolist(),
        }

    def predict_one(
        self, x: np.ndarray, row: np.ndarray | None = None
    ) -> float:
        """Predicted time for one feature vector (seconds, unmargined).

        ``row`` is :meth:`design` of ``x``, when the caller built it.
        """
        if self._rls is None:
            return warm_start_time(
                x, self.offline_coef, self.offline_intercept
            )
        assert self._scales is not None
        if row is None:
            row = design_row(x, self._scales)
        return recalibrated_time(row, self._rls.theta)

    def update(
        self, x: np.ndarray, observed_s: float, row: np.ndarray | None = None
    ) -> float:
        """Fold one observed (features, time) pair in.

        The asymmetric weighting is decided against the *current* model:
        if it under-predicted this job, the sample gets ``under_weight``.
        ``row`` is :meth:`design` of ``x``, when the caller built it
        after the first update.  Returns the pre-update residual
        (observed - predicted).
        """
        if self._rls is None:
            self._ensure_initialized(x)
            row = None  # built before the scales were frozen
        rls = self._rls
        assert rls is not None and self._scales is not None
        if row is None:
            row = design_row(x, self._scales)
        residual = float(observed_s) - float(row @ rls.theta)
        rls.fold(row, residual, self.under_weight if residual > 0 else 1.0)
        return residual


class AdaptiveMargin:
    """AIMD safety margin driven by the observed miss rate.

    Replaces the paper's fixed 10% inflation (§3.4): every miss widens
    the margin by ``WIDEN_FACTOR`` (misses are expensive and must be
    reacted to immediately); while the ``MISS_ALPHA``-smoothed miss rate
    sits at or below ``TARGET_MISS_RATE``, the margin decays by ``DECAY``
    per job toward its floor, clawing the energy headroom back.

    Args:
        initial: Starting margin.
        floor: Smallest margin the decay may reach.
        ceiling: Largest margin a miss burst may reach.
    """

    def __init__(self, initial: float, floor: float, ceiling: float):
        if not 0.0 <= floor <= initial <= ceiling:
            raise ValueError(
                f"need 0 <= floor <= initial <= ceiling, got "
                f"{floor}/{initial}/{ceiling}"
            )
        self.value = initial
        self.floor = floor
        self.ceiling = ceiling
        self._miss_ewma = Ewma(MISS_ALPHA)

    def update(self, missed: bool) -> float:
        """Fold one job outcome in; returns the new margin."""
        miss_rate = self._miss_ewma.update(1.0 if missed else 0.0)
        if missed:
            self.value = min(self.ceiling, self.value * WIDEN_FACTOR)
        elif miss_rate <= TARGET_MISS_RATE:
            self.value = max(self.floor, self.value * DECAY)
        return self.value
