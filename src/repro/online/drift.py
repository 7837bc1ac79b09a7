"""Change detection over the under-prediction residual stream.

The offline model's failure mode that matters is systematic
*under*-prediction: the governor keeps choosing frequencies that are too
slow and every tight job misses its deadline.  The detector here
consumes the per-job under-prediction residual (``max(0, relative
residual)``) and raises a flag when its level shifts upward beyond what
the profiled behaviour explains.  It adapts its own baseline mean, so a
model that always under-predicts by a constant few percent is not
repeatedly re-flagged.
"""

from __future__ import annotations

__all__ = ["PageHinkleyDetector"]


class PageHinkleyDetector:
    """Page–Hinkley test for an upward mean shift.

    Maintains the cumulative deviation of samples from their running
    mean (minus a tolerance ``delta``); drift is flagged when the
    cumulated deviation rises more than ``threshold`` above its running
    minimum.

    Args:
        delta: Magnitude tolerance — mean shifts smaller than this are
            treated as noise.
        threshold: Alarm level for the test statistic (in the same units
            as the samples; residuals here are relative errors).
        min_samples: Samples required before an alarm may fire, so the
            running mean has something to stand on.
    """

    def __init__(self, delta: float, threshold: float, min_samples: int):
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        self.delta = delta
        self.threshold = threshold
        self.min_samples = min_samples
        self._n = 0
        self._mean = 0.0
        self._cumulative = 0.0
        self._minimum = 0.0

    def update(self, x: float) -> bool:
        """Fold one sample in; returns True when drift is flagged."""
        x = float(x)
        self._n += 1
        self._mean += (x - self._mean) / self._n
        self._cumulative += x - self._mean - self.delta
        if self._cumulative < self._minimum:
            self._minimum = self._cumulative
        if self._n < self.min_samples:
            return False
        return self._cumulative - self._minimum > self.threshold

    @property
    def statistic(self) -> float:
        """Current test statistic (0 at rest, grows toward the threshold)."""
        return self._cumulative - self._minimum

    def reset(self) -> None:
        """Forget all history (called when the governor re-engages)."""
        self._n = 0
        self._mean = 0.0
        self._cumulative = 0.0
        self._minimum = 0.0
