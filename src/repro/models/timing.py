"""The execution-time predictor: encoder + two anchor models + margin.

The DVFS decision needs the job's predicted time at both anchor
frequencies (paper §3.4), so two coefficient vectors are trained on the
same features — one against times profiled at fmax, one at fmin.  A
safety margin (10% by default) inflates both predictions to absorb
run-to-run timing noise.

Feature selection for slicing takes the union of the two models'
non-zero coefficient masks: a site is only droppable if *neither* anchor
model needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.features.encoding import FeatureEncoder
from repro.features.trace import ProfileTrace
from repro.models.asymmetric import AsymmetricLassoModel, fit_models
from repro.models.poly import PolynomialExpansion
from repro.programs.interpreter import RawFeatures

__all__ = ["TimePrediction", "ExecutionTimePredictor"]


@dataclass(frozen=True)
class TimePrediction:
    """Margin-inflated anchor-time predictions for one job."""

    t_fmax_s: float
    t_fmin_s: float


class ExecutionTimePredictor:
    """Maps raw control-flow features to anchor execution times."""

    def __init__(
        self,
        encoder: FeatureEncoder,
        model_fmax: AsymmetricLassoModel,
        model_fmin: AsymmetricLassoModel,
        margin: float = 0.10,
        expansion: PolynomialExpansion | None = None,
    ):
        if margin < 0:
            raise ValueError(f"margin must be non-negative, got {margin}")
        if not (model_fmax.is_fitted and model_fmin.is_fitted):
            raise ValueError("both anchor models must be fitted")
        if expansion is not None and not expansion.is_fitted:
            raise ValueError("expansion must be fitted")
        self.encoder = encoder
        self.model_fmax = model_fmax
        self.model_fmin = model_fmin
        self.margin = margin
        self.expansion = expansion

    @classmethod
    def train(
        cls,
        encoder: FeatureEncoder,
        trace: ProfileTrace,
        alpha: float = 100.0,
        gamma: float = 0.0,
        margin: float = 0.10,
        max_iter: int = 5000,
        degree: int = 1,
        feature_costs: np.ndarray | None = None,
    ) -> "ExecutionTimePredictor":
        """Fit both anchor models from a profiling trace, in one stacked
        solve on the shared features
        (:func:`~repro.models.asymmetric.fit_models`).

        Args:
            degree: Model order.  1 is the paper's linear model; 2 adds
                squares and pairwise products (the §3.5 extension — §5.3
                found little gain, which the ablation bench verifies).
            feature_costs: Optional per-base-column relative generation
                costs (>= 1).  They become L1 multipliers, so expensive
                features must earn their slice time (the §3.5 "overhead
                … as penalties in the optimization objective" idea).  For
                expanded terms, a product inherits the max of its
                factors' costs.
        """
        X = encoder.encode_matrix(trace.raw_features)
        expansion = None
        gamma_weights = None
        if feature_costs is not None:
            feature_costs = np.asarray(feature_costs, dtype=float)
            if feature_costs.shape != (encoder.n_columns,):
                raise ValueError(
                    "feature_costs length must equal encoder columns"
                )
            gamma_weights = feature_costs
        if degree > 1:
            expansion = PolynomialExpansion(degree).fit(encoder.n_columns)
            X = expansion.transform(X)
            if gamma_weights is not None:
                gamma_weights = np.array(
                    [
                        max(feature_costs[i] for i in term)
                        for term in expansion.terms
                    ]
                )
        models = [
            AsymmetricLassoModel(alpha=alpha, gamma=gamma, max_iter=max_iter)
            for _ in range(2)
        ]
        fit_models(
            models,
            X,
            (trace.times_s("fmax"), trace.times_s("fmin")),
            gamma_weights=gamma_weights,
        )
        return cls(encoder, *models, margin=margin, expansion=expansion)

    def _encode(self, raw: RawFeatures) -> np.ndarray:
        x = self.encoder.encode(raw)
        if self.expansion is not None:
            x = self.expansion.transform_one(x)
        return x

    def model_space(self, raw: RawFeatures) -> np.ndarray:
        """The feature vector the anchor models consume (encoded and,
        when a polynomial expansion is fitted, expanded).  Decision
        provenance records this vector so a prediction can be re-derived
        offline without re-running the slice."""
        return self._encode(raw)

    def predict(self, raw: RawFeatures) -> TimePrediction:
        """Anchor-time predictions for one job, with the margin applied.

        Times are clamped to be non-negative; a linear model extrapolating
        on unusual features can go below zero, which is physically
        meaningless and would confuse the DVFS model.
        """
        x = self._encode(raw)
        factor = 1.0 + self.margin
        return TimePrediction(
            t_fmax_s=max(self.model_fmax.predict_one(x), 0.0) * factor,
            t_fmin_s=max(self.model_fmin.predict_one(x), 0.0) * factor,
        )

    def predict_raw(self, raw: RawFeatures) -> TimePrediction:
        """Predictions without the margin (for error analysis, Fig. 19)."""
        x = self._encode(raw)
        return TimePrediction(
            t_fmax_s=float(self.model_fmax.predict_one(x)),
            t_fmin_s=float(self.model_fmin.predict_one(x)),
        )

    def _base_column_mask(self) -> np.ndarray:
        """Selected base columns, folding expanded terms back if needed."""
        mask = self.model_fmax.selected_mask() | self.model_fmin.selected_mask()
        if self.expansion is not None:
            mask = self.expansion.base_mask(mask)
        return mask

    @property
    def needed_sites(self) -> frozenset[str]:
        """Sites the prediction slice must compute (union of both anchors)."""
        return self.encoder.sites_for_columns(list(self._base_column_mask()))

    @property
    def n_selected_columns(self) -> int:
        """Selected base feature columns (expanded terms folded back)."""
        return int(np.sum(self._base_column_mask()))
