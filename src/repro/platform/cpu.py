"""Execution-time model of the simulated CPU.

The paper (§3.4, Fig. 9) validates the classical two-term DVFS model

    t = T_mem + N_dep / f

where ``T_mem`` is memory-bound time that does not scale with the core
clock and ``N_dep`` is the count of CPU cycles that do.  Jobs in this
reproduction are therefore characterized by a :class:`Work` value — the
amount of frequency-dependent and frequency-independent work — and the
:class:`SimulatedCpu` turns Work into elapsed time at a given operating
point, with optional multiplicative jitter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.platform.jitter import JitterModel, NoJitter
from repro.platform.opp import OperatingPoint

__all__ = ["Work", "SimulatedCpu"]


@dataclass(frozen=True)
class Work:
    """The cost of one job, independent of the frequency it runs at.

    Attributes:
        cycles: CPU cycles that scale with frequency (``N_dep``).
        mem_time_s: Seconds of memory-bound time (``T_mem``) that do not
            scale with the core clock.
    """

    cycles: float
    mem_time_s: float = 0.0

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError(f"cycles must be non-negative, got {self.cycles}")
        if self.mem_time_s < 0:
            raise ValueError(
                f"mem_time_s must be non-negative, got {self.mem_time_s}"
            )


class SimulatedCpu:
    """Computes elapsed time for Work at an operating point.

    The ideal (jitter-free) time is exactly ``mem_time + cycles / f``;
    :meth:`execution_time` multiplies it by one draw from the jitter model,
    reproducing run-to-run variation.  :meth:`ideal_time` is what an oracle
    with perfect knowledge of the work — but not of the noise — would use.
    """

    def __init__(self, jitter: JitterModel | None = None):
        self.jitter = jitter if jitter is not None else NoJitter()

    def ideal_time(self, work: Work, opp: OperatingPoint) -> float:
        """Noise-free execution time of ``work`` at ``opp``, in seconds."""
        return work.mem_time_s + work.cycles / opp.freq_hz

    def execution_time(self, work: Work, opp: OperatingPoint) -> float:
        """One noisy realization of the execution time, in seconds."""
        return self.ideal_time(work, opp) * self.jitter.sample()
