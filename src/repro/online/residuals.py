"""Streaming statistics over per-job prediction residuals.

The online feedback loop never stores job history: the one statistic
here is O(1) in memory and update cost, so it cannot become an overhead
problem at production job rates.  :class:`Ewma` backs both the adaptive
governor's residual-magnitude average (which gates re-engagement after
a drift alarm) and the adaptive margin's miss-rate average.
"""

from __future__ import annotations

__all__ = ["Ewma"]


class Ewma:
    """Exponentially-weighted moving average with explicit warm start.

    Attributes:
        alpha: Update weight of the newest sample (0 < alpha <= 1).
        value: Current average; ``None`` until the first update.
    """

    def __init__(self, alpha: float):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.value: float | None = None

    def update(self, x: float) -> float:
        """Fold one sample in; returns the new average."""
        if self.value is None:
            self.value = float(x)
        else:
            self.value += self.alpha * (float(x) - self.value)
        return self.value

    def get(self, default: float = 0.0) -> float:
        """Current average, or ``default`` before any update."""
        return default if self.value is None else self.value
