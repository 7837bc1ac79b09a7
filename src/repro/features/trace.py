"""Profiling traces: the training data for the execution-time model.

One :class:`ProfileSample` records what one profiled job did (its raw
features) and how long it took at the two anchor frequencies the DVFS
model needs (paper §3.4 predicts ``t_fmin`` and ``t_fmax``).  A
:class:`ProfileTrace` is an ordered collection of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.programs.interpreter import RawFeatures

__all__ = ["ProfileSample", "ProfileTrace"]


@dataclass(frozen=True)
class ProfileSample:
    """One profiled job execution.

    Attributes:
        features: Raw control-flow features counted during the job.
        time_fmax_s: Measured execution time at maximum frequency.
        time_fmin_s: Measured execution time at minimum frequency.
    """

    features: RawFeatures
    time_fmax_s: float
    time_fmin_s: float

    def __post_init__(self) -> None:
        if self.time_fmax_s < 0 or self.time_fmin_s < 0:
            raise ValueError("profiled times must be non-negative")


class ProfileTrace:
    """An append-only sequence of profile samples."""

    def __init__(self, samples: Sequence[ProfileSample] = ()):
        self._samples: list[ProfileSample] = list(samples)

    def append(self, sample: ProfileSample) -> None:
        """Add one profiled job to the trace."""
        self._samples.append(sample)

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self) -> Iterator[ProfileSample]:
        return iter(self._samples)

    def __getitem__(self, index: int) -> ProfileSample:
        return self._samples[index]

    @property
    def raw_features(self) -> list[RawFeatures]:
        return [s.features for s in self._samples]

    def times_s(self, anchor: str) -> np.ndarray:
        """Vector of profiled times for one anchor ("fmax" or "fmin")."""
        if anchor == "fmax":
            return np.array([s.time_fmax_s for s in self._samples])
        if anchor == "fmin":
            return np.array([s.time_fmin_s for s in self._samples])
        raise ValueError(f"anchor must be 'fmax' or 'fmin', got {anchor!r}")
