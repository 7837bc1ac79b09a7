"""Prediction models: asymmetric Lasso, OLS baseline, DVFS model, metrics."""
