"""Timing-noise models.

Real job execution times vary even with identical inputs (cache state,
TLB state, OS interference).  The paper handles this with a 10% safety
margin on predicted times (§3.4).  The reproduction calibration notes that
timing jitter is the main threat to governor fidelity, so jitter is a
first-class, seeded, injectable component rather than an afterthought.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod

__all__ = ["JitterModel", "NoJitter", "LogNormalJitter"]


class JitterModel(ABC):
    """Produces multiplicative noise factors applied to execution times."""

    @abstractmethod
    def sample(self) -> float:
        """Return a positive multiplicative factor (median ~1.0)."""


class NoJitter(JitterModel):
    """Deterministic timing: every sample is exactly 1.0."""

    def sample(self) -> float:
        return 1.0


class LogNormalJitter(JitterModel):
    """Log-normal multiplicative jitter with median 1.0.

    A log-normal keeps factors strictly positive and produces the mild
    right skew seen in real job-time distributions (occasional slow jobs
    from cache pollution or an OS tick, never a negative-time job).

    Attributes:
        sigma: Standard deviation of ``ln(factor)``.  ``sigma = 0.02``
            gives ~2% typical deviation; the 95th percentile factor is
            ``exp(1.645 * sigma)``.
        max_factor: Hard cap so a pathological draw cannot dominate a
            simulation (mirrors the paper's exclusion of rare outliers).
    """

    def __init__(self, sigma: float, seed: int = 0, max_factor: float = 1.5):
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        if max_factor < 1.0:
            raise ValueError(f"max_factor must be >= 1, got {max_factor}")
        self.sigma = sigma
        self.max_factor = max_factor
        self._seed = seed
        self._rng = random.Random(seed)

    def sample(self) -> float:
        if self.sigma == 0:
            return 1.0
        factor = math.exp(self._rng.gauss(0.0, self.sigma))
        return min(max(factor, 1.0 / self.max_factor), self.max_factor)

    def __repr__(self) -> str:
        return f"LogNormalJitter(sigma={self.sigma}, seed={self._seed})"
