"""Prediction models: asymmetric Lasso, OLS baseline, DVFS model, metrics."""

from repro.models.asymmetric import AsymmetricLassoModel
from repro.models.dvfs import DvfsComponents, DvfsModel
from repro.models.linear import OlsModel
from repro.models.metrics import ErrorSummary, signed_errors, summarize_errors
from repro.models.poly import PolynomialExpansion
from repro.models.solver import (
    SolverResult,
    asymmetric_lasso_objective,
    solve_asymmetric_lasso,
    solve_asymmetric_lasso_stack,
)
from repro.models.timing import ExecutionTimePredictor, TimePrediction

__all__ = [
    "AsymmetricLassoModel",
    "DvfsComponents",
    "DvfsModel",
    "OlsModel",
    "ErrorSummary",
    "signed_errors",
    "summarize_errors",
    "PolynomialExpansion",
    "SolverResult",
    "asymmetric_lasso_objective",
    "solve_asymmetric_lasso",
    "solve_asymmetric_lasso_stack",
    "ExecutionTimePredictor",
    "TimePrediction",
]
