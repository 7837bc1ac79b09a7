"""Execution-time predictor whose anchor models learn online.

Mirrors the interface of
:class:`~repro.models.timing.ExecutionTimePredictor` (``predict`` over
:class:`~repro.programs.interpreter.RawFeatures`), so a
:class:`~repro.governors.predictive.PredictiveGovernor` composes it
without knowing the coefficients underneath move.  Encoding and
polynomial expansion are reused from the wrapped offline predictor —
the slice computes the same features either way.

The predictor also remembers the last encoded feature vector and raw
prediction: the adaptive governor reads both after the job completes to
close the feedback loop without re-running the slice.
"""

from __future__ import annotations

import numpy as np

from repro.models.timing import ExecutionTimePredictor, TimePrediction
from repro.online.recalibrate import AdaptiveMargin, OnlineAnchorModel
from repro.programs.interpreter import RawFeatures

__all__ = ["OnlineTimePredictor"]


class OnlineTimePredictor:
    """Anchor-time predictions from online-recalibrated models.

    Args:
        offline: The trained offline predictor (encoder, expansion, and
            warm-start coefficients come from it).
        margin: Adaptive safety margin (replaces the offline fixed one).
        lam: RLS forgetting factor for both anchor models.
        p0: RLS initial covariance scale.
        under_weight: Per-sample weight for under-predicted jobs (the
            online approximation of the paper's asymmetric alpha).
    """

    def __init__(
        self,
        offline: ExecutionTimePredictor,
        margin: AdaptiveMargin,
        lam: float,
        p0: float,
        under_weight: float,
    ):
        self.encoder = offline.encoder
        self.expansion = offline.expansion
        self.margin = margin
        self.model_fmax = OnlineAnchorModel(
            coef=self._coef(offline.model_fmax.coef_),
            intercept=offline.model_fmax.intercept_,
            lam=lam,
            p0=p0,
            under_weight=under_weight,
        )
        self.model_fmin = OnlineAnchorModel(
            coef=self._coef(offline.model_fmin.coef_),
            intercept=offline.model_fmin.intercept_,
            lam=lam,
            p0=p0,
            under_weight=under_weight,
        )
        self.last_x: np.ndarray | None = None
        self.last_raw: TimePrediction | None = None

    @staticmethod
    def _coef(coef: np.ndarray | None) -> np.ndarray:
        if coef is None:
            raise ValueError("offline anchor models must be fitted")
        return coef

    @property
    def n_features(self) -> int:
        """Length of the (possibly expanded) feature vector."""
        return self.model_fmax.n_features

    @property
    def generation(self) -> int:
        """Recalibration generation: RLS updates absorbed since the
        offline fit (0 = still deciding on offline coefficients).  Both
        anchors update together, so fmax's counter stands for both."""
        return self.model_fmax.n_updates

    def _encode(self, raw: RawFeatures) -> np.ndarray:
        x = self.encoder.encode(raw)
        if self.expansion is not None:
            x = self.expansion.transform_one(x)
        return x

    def model_space(self, raw: RawFeatures) -> np.ndarray:
        """The feature vector the anchor models consume (see
        :meth:`repro.models.timing.ExecutionTimePredictor.model_space`)."""
        return self._encode(raw)

    def predict(self, raw: RawFeatures) -> TimePrediction:
        """Margin-inflated anchor predictions (non-negative), remembering
        the encoded features for the post-job feedback step."""
        x = self._encode(raw)
        prediction = TimePrediction(
            t_fmax_s=max(self.model_fmax.predict_one(x), 0.0),
            t_fmin_s=max(self.model_fmin.predict_one(x), 0.0),
        )
        self.last_x = x
        self.last_raw = prediction
        factor = 1.0 + self.margin.value
        return TimePrediction(
            t_fmax_s=prediction.t_fmax_s * factor,
            t_fmin_s=prediction.t_fmin_s * factor,
        )

    def observe(
        self, x: np.ndarray, t_fmax_s: float, t_fmin_s: float
    ) -> None:
        """Fold one job's anchor-projected observed times into both models."""
        self.model_fmax.update(x, t_fmax_s)
        self.model_fmin.update(x, t_fmin_s)
