"""Change detectors over the under-prediction residual stream.

The offline model's failure mode that matters is systematic
*under*-prediction: the governor keeps choosing frequencies that are too
slow and every tight job misses its deadline.  Both detectors here
consume the per-job under-prediction residual (``max(0, relative
residual)``) and raise a flag when its level shifts upward beyond what
the profiled behaviour explains.

:class:`PageHinkleyDetector` is the default (it adapts its own baseline
mean, so a model that always under-predicts by a constant few percent is
not repeatedly re-flagged); :class:`CusumDetector` is the classical
fixed-target alternative for callers that prefer an absolute bound.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

__all__ = [
    "DriftDetector",
    "PageHinkleyDetector",
    "CusumDetector",
    "detector_from_state",
]


class DriftDetector(ABC):
    """Streaming change detector interface."""

    @abstractmethod
    def update(self, x: float) -> bool:
        """Fold one sample in; returns True when drift is flagged."""

    @abstractmethod
    def reset(self) -> None:
        """Forget all history (called when the governor re-engages)."""

    @property
    @abstractmethod
    def statistic(self) -> float:
        """Current test statistic (0 at rest, grows toward the threshold)."""

    @abstractmethod
    def state_dict(self) -> dict[str, Any]: ...

    @abstractmethod
    def load_state_dict(self, state: dict[str, Any]) -> None: ...


class PageHinkleyDetector(DriftDetector):
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

    def __init__(
        self,
        delta: float = 0.05,
        threshold: float = 0.4,
        min_samples: int = 8,
    ):
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
        return self._cumulative - self._minimum

    def reset(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._cumulative = 0.0
        self._minimum = 0.0

    def state_dict(self) -> dict[str, Any]:
        return {
            "kind": "page-hinkley",
            "delta": self.delta,
            "threshold": self.threshold,
            "min_samples": self.min_samples,
            "n": self._n,
            "mean": self._mean,
            "cumulative": self._cumulative,
            "minimum": self._minimum,
        }

    def load_state_dict(self, state: dict[str, Any]) -> None:
        self.delta = float(state["delta"])
        self.threshold = float(state["threshold"])
        self.min_samples = int(state["min_samples"])
        self._n = int(state["n"])
        self._mean = float(state["mean"])
        self._cumulative = float(state["cumulative"])
        self._minimum = float(state["minimum"])


class CusumDetector(DriftDetector):
    """One-sided CUSUM against a fixed acceptable residual level.

    Accumulates ``max(0, g + x - target - slack)``; drift is flagged when
    the accumulator exceeds ``threshold``.  Unlike Page–Hinkley the
    baseline is fixed, so a model that is *chronically* biased beyond
    ``target`` will (correctly, for this variant) keep flagging.
    """

    def __init__(
        self,
        target: float = 0.0,
        slack: float = 0.05,
        threshold: float = 0.4,
        min_samples: int = 8,
    ):
        if slack < 0:
            raise ValueError(f"slack must be non-negative, got {slack}")
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        self.target = target
        self.slack = slack
        self.threshold = threshold
        self.min_samples = min_samples
        self._n = 0
        self._g = 0.0

    def update(self, x: float) -> bool:
        self._n += 1
        self._g = max(0.0, self._g + float(x) - self.target - self.slack)
        if self._n < self.min_samples:
            return False
        return self._g > self.threshold

    @property
    def statistic(self) -> float:
        return self._g

    def reset(self) -> None:
        self._n = 0
        self._g = 0.0

    def state_dict(self) -> dict[str, Any]:
        return {
            "kind": "cusum",
            "target": self.target,
            "slack": self.slack,
            "threshold": self.threshold,
            "min_samples": self.min_samples,
            "n": self._n,
            "g": self._g,
        }

    def load_state_dict(self, state: dict[str, Any]) -> None:
        self.target = float(state["target"])
        self.slack = float(state["slack"])
        self.threshold = float(state["threshold"])
        self.min_samples = int(state["min_samples"])
        self._n = int(state["n"])
        self._g = float(state["g"])


def detector_from_state(state: dict[str, Any]) -> DriftDetector:
    """Rebuild a detector from its :meth:`~DriftDetector.state_dict`."""
    kind = state.get("kind")
    if kind == "page-hinkley":
        detector: DriftDetector = PageHinkleyDetector()
    elif kind == "cusum":
        detector = CusumDetector()
    else:
        raise ValueError(f"unknown drift-detector kind {kind!r}")
    detector.load_state_dict(state)
    return detector
