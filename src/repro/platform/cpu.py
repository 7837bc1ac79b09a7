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

from math import inf
from typing import NamedTuple

from repro.platform.jitter import JitterModel, NoJitter
from repro.platform.opp import OperatingPoint

__all__ = ["Work", "SimulatedCpu"]


class _WorkFields(NamedTuple):
    cycles: float
    mem_time_s: float = 0.0


class Work(_WorkFields):
    """The cost of one job, independent of the frequency it runs at.

    Immutable (a named tuple): a job's Work outlives the job, in its
    record and the profiler's trace.

    Attributes:
        cycles: CPU cycles that scale with frequency (``N_dep``).
        mem_time_s: Seconds of memory-bound time (``T_mem``) that do not
            scale with the core clock.
    """

    __slots__ = ()

    def __new__(cls, cycles: float, mem_time_s: float = 0.0) -> "Work":
        if not 0.0 <= cycles < inf:
            raise ValueError(
                f"Work: cycles must be a finite number >= 0, got {cycles!r}"
            )
        if not 0.0 <= mem_time_s < inf:
            raise ValueError(
                "Work: mem_time_s must be a finite number >= 0, "
                f"got {mem_time_s!r}"
            )
        return tuple.__new__(cls, (cycles, mem_time_s))


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
