"""Arrival processes: how a tenant's jobs are released onto the clock.

The single-session executor releases jobs strictly periodically (one
per budget).  Fleets are burstier: user think time makes releases
Poisson, correlated load makes them bursty (a two-state Markov-
modulated Poisson process), and daily usage cycles modulate the rate
slowly.  Each process here turns ``(n_jobs, period_s, rng)`` into a
non-decreasing arrival schedule the executor consumes via its
``arrivals`` parameter; deadlines stay ``arrival + budget``, so a
burst genuinely queues work against the deadline clock.

Processes are frozen declarations that round-trip through JSON (the
``kind`` key selects the class), so a fleet spec file fully determines
every tenant's traffic shape.
"""

from __future__ import annotations

import dataclasses
import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.checks import check_number

__all__ = [
    "ArrivalProcess",
    "PeriodicArrivals",
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "ARRIVAL_KINDS",
    "arrival_from_dict",
]


class ArrivalProcess(ABC):
    """Generates one session's job release times."""

    kind: str

    @abstractmethod
    def arrivals(
        self, n_jobs: int, period_s: float, rng: random.Random
    ) -> list[float]:
        """``n_jobs`` non-decreasing release times starting at 0.0.

        ``period_s`` is the tenant's mean inter-arrival target (the
        task budget by convention) so one tenant spec produces
        comparable load across apps with different budgets.
        """

    def as_dict(self) -> dict:
        data = {"kind": self.kind}
        data.update(
            {
                field: getattr(self, field)
                for field in getattr(self, "__dataclass_fields__", ())
            }
        )
        return data

    def _check(self, n_jobs: int, period_s: float) -> None:
        if n_jobs < 1:
            raise ValueError(f"need at least one job, got {n_jobs}")
        if period_s <= 0:
            raise ValueError(f"period must be positive, got {period_s}")


@dataclass(frozen=True)
class PeriodicArrivals(ArrivalProcess):
    """The paper's release model: one job per period, no randomness.

    It never draws from ``rng``, which may be None.
    """

    kind = "periodic"

    def arrivals(
        self, n_jobs: int, period_s: float, rng: random.Random
    ) -> list[float]:
        self._check(n_jobs, period_s)
        return [i * period_s for i in range(n_jobs)]


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Memoryless releases: exponential gaps with mean ``period/rate``.

    Attributes:
        rate: Load multiplier; 1.0 matches the periodic throughput on
            average, 2.0 releases twice as fast (sustained overload).
    """

    rate: float = 1.0
    kind = "poisson"

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")

    def arrivals(
        self, n_jobs: int, period_s: float, rng: random.Random
    ) -> list[float]:
        self._check(n_jobs, period_s)
        mean_gap = period_s / self.rate
        times, t = [], 0.0
        for _ in range(n_jobs):
            times.append(t)
            t += rng.expovariate(1.0 / mean_gap)
        return times


@dataclass(frozen=True)
class BurstyArrivals(ArrivalProcess):
    """Two-state MMPP: calm stretches interrupted by fast bursts.

    The process alternates between a calm state (releases at
    ``period / calm_rate``) and a burst state (``burst_factor`` times
    faster); after each release it stays in its state with probability
    ``1 - 1/dwell`` (geometric dwell of ``dwell`` jobs on average).

    Attributes:
        burst_factor: Rate multiplier while bursting (> 1).
        calm_rate: Load multiplier in the calm state.
        dwell: Mean jobs spent in a state before switching.
    """

    burst_factor: float = 4.0
    calm_rate: float = 0.8
    dwell: float = 8.0
    kind = "bursty"

    def __post_init__(self) -> None:
        if self.burst_factor <= 1.0:
            raise ValueError(
                f"burst_factor must exceed 1, got {self.burst_factor}"
            )
        if self.calm_rate <= 0:
            raise ValueError(f"calm_rate must be positive, got {self.calm_rate}")
        if self.dwell < 1.0:
            raise ValueError(f"dwell must be >= 1 job, got {self.dwell}")

    def arrivals(
        self, n_jobs: int, period_s: float, rng: random.Random
    ) -> list[float]:
        self._check(n_jobs, period_s)
        switch_p = 1.0 / self.dwell
        bursting = False
        times, t = [], 0.0
        for _ in range(n_jobs):
            times.append(t)
            rate = self.calm_rate * (self.burst_factor if bursting else 1.0)
            t += rng.expovariate(rate / period_s)
            if rng.random() < switch_p:
                bursting = not bursting
        return times


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Slow sinusoidal rate cycle: the daily peak-and-trough pattern.

    The instantaneous rate over a cycle of ``cycle_jobs`` releases is
    ``1 + amplitude * sin(2*pi * i / cycle_jobs)`` times the base rate,
    with exponential gaps at that rate (so the peak half of the cycle
    is genuinely overloaded when ``amplitude`` is high).

    Attributes:
        amplitude: Peak rate excursion as a fraction of base, in [0, 1).
        cycle_jobs: Releases per full cycle.
    """

    amplitude: float = 0.5
    cycle_jobs: int = 64
    kind = "diurnal"

    def __post_init__(self) -> None:
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(
                f"amplitude must be in [0, 1), got {self.amplitude}"
            )
        if self.cycle_jobs < 2:
            raise ValueError(
                f"cycle needs >= 2 jobs, got {self.cycle_jobs}"
            )

    def arrivals(
        self, n_jobs: int, period_s: float, rng: random.Random
    ) -> list[float]:
        self._check(n_jobs, period_s)
        times, t = [], 0.0
        for i in range(n_jobs):
            times.append(t)
            phase = 2.0 * math.pi * i / self.cycle_jobs
            rate = (1.0 + self.amplitude * math.sin(phase)) / period_s
            t += rng.expovariate(rate)
        return times


#: JSON ``kind`` -> class, the registry ``arrival_from_dict`` consults.
ARRIVAL_KINDS: dict[str, type[ArrivalProcess]] = {
    cls.kind: cls
    for cls in (
        PeriodicArrivals,
        PoissonArrivals,
        BurstyArrivals,
        DiurnalArrivals,
    )
}


def arrival_from_dict(data: dict) -> ArrivalProcess:
    """Rebuild a process from its :meth:`ArrivalProcess.as_dict` form.

    Raises ``ValueError`` for anything but an object with a known
    ``kind`` whose other fields are the process's own, each a finite
    number (an int where the default is one).
    """
    if not isinstance(data, dict):
        raise ValueError(f"arrival must be a JSON object, got {data!r}")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in ARRIVAL_KINDS:
        raise ValueError(
            f"unknown arrival kind {kind!r}; "
            f"expected one of {sorted(ARRIVAL_KINDS)}"
        )
    cls = ARRIVAL_KINDS[kind]
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    kwargs = {k: v for k, v in data.items() if k != "kind"}
    unknown = sorted(set(kwargs) - set(defaults))
    if unknown:
        raise ValueError(f"{kind} arrival has unknown field(s) {unknown}")
    for key, value in kwargs.items():
        count = type(defaults[key]) is int
        check_number(f"{kind} arrival", key, value, count=count)
    return cls(**kwargs)
