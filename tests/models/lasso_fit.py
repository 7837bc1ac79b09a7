"""One-model fits through ``fit_models``, the only training entry point."""

import numpy as np

from repro.models.asymmetric import AsymmetricLassoModel, fit_models


def fit(model: AsymmetricLassoModel, X, y, gamma_weights=None):
    """Fit ``model`` alone to ``(X, y)``; returns it."""
    fit_models((model,), X, (y,), gamma_weights)
    return model


def predict(model: AsymmetricLassoModel, X) -> np.ndarray:
    """Predicted times for the rows of ``X``."""
    return np.asarray(X, dtype=float) @ model.coef_ + model.intercept_


def n_selected(model: AsymmetricLassoModel) -> int:
    """Features with a non-zero coefficient."""
    return int(model.selected_mask().sum())
