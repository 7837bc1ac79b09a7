"""Prediction-error statistics (Fig. 19's box-and-whisker data).

The paper reports signed errors where positive numbers are
**over-prediction** (predicted > actual; safe, costs energy) and negative
numbers are **under-prediction** (predicted < actual; risks a deadline
miss).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ErrorSummary", "signed_errors", "summarize_errors"]


@dataclass(frozen=True)
class ErrorSummary:
    """Box-and-whisker summary of signed prediction errors (seconds).

    Whiskers extend to the farthest point within 1.5 IQR of the box, as
    in the paper's plots; anything beyond is an outlier.
    """

    mean: float
    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    n_outliers: int
    over_rate: float
    under_rate: float
    n: int


def signed_errors(predicted, actual) -> np.ndarray:
    """Signed errors, positive = over-prediction."""
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predicted.shape != actual.shape:
        raise ValueError(
            f"shape mismatch: predicted {predicted.shape} vs actual {actual.shape}"
        )
    return predicted - actual


def summarize_errors(errors) -> ErrorSummary:
    """Box-plot statistics over a vector of signed errors."""
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        raise ValueError("cannot summarize an empty error vector")
    q1, median, q3 = np.percentile(errors, [25, 50, 75])
    iqr = q3 - q1
    low_fence = q1 - 1.5 * iqr
    high_fence = q3 + 1.5 * iqr
    inliers = errors[(errors >= low_fence) & (errors <= high_fence)]
    return ErrorSummary(
        mean=float(errors.mean()),
        median=float(median),
        q1=float(q1),
        q3=float(q3),
        whisker_low=float(inliers.min()),
        whisker_high=float(inliers.max()),
        n_outliers=int(errors.size - inliers.size),
        over_rate=float((errors > 0).mean()),
        under_rate=float((errors < 0).mean()),
        n=int(errors.size),
    )
