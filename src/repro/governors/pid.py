"""PID-based reactive controller (Gu & Chakraborty, DAC'08 style).

The paper's strongest prior-work baseline: predict the next job's
execution time from the history of past jobs with a PID rule, then pick
the frequency that fits the budget.  Because the estimate only reacts
*after* an expensive job has been observed, it lags job-to-job input
variation (the paper's Fig. 3) and misses deadlines (13% on average in
Fig. 15) while saving about as much energy as prediction-based control.

The controller observes only what a real one could: each job's measured
execution time and the frequency it ran at.  Times are normalized to
fmax-equivalent cycle counts assuming fully frequency-scalable work.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.governors.base import Decision, Governor, JobContext
from repro.models.dvfs import DvfsComponents, DvfsModel
from repro.platform.board import Board
from repro.platform.opp import OppTable

if TYPE_CHECKING:  # avoid a circular import with the runtime package
    from repro.runtime.records import JobRecord

__all__ = ["PidGovernor"]

#: Proportional gain when the estimate was too LOW (the job was bigger
#: than expected — the dangerous direction).
KP_UP = 0.9
#: Proportional gain when the estimate was too high.  The asymmetry (rise
#: fast, decay slowly) is the offline tuning the paper describes:
#: "optimized to reduce deadline misses".
KP_DOWN = 0.15
#: Integral gain.
KI = 0.01
#: Derivative gain.
KD = 0.05
#: Safety factor applied to the cycle estimate.
MARGIN = 0.25


class PidGovernor(Governor):
    """Predicts next-job cycles with a PID filter on observation errors.

    Attributes:
        opps: Operating points.
    """

    def __init__(self, opps: OppTable):
        self.opps = opps
        self._dvfs = DvfsModel(opps)
        self._estimate_cycles: float | None = None
        self._integral = 0.0
        self._last_error = 0.0

    @property
    def name(self) -> str:
        return "pid"

    @property
    def estimate_cycles(self) -> float | None:
        """Current cycle estimate (None before any observation)."""
        return self._estimate_cycles

    def start(self, board: Board, budget_s: float) -> None:
        self._estimate_cycles = None
        self._integral = 0.0
        self._last_error = 0.0

    def decide(self, ctx: JobContext) -> Decision | None:
        if self._estimate_cycles is None:
            # No history yet: be safe, run the first job flat out.
            return Decision(self.opps.fmax)
        cycles = self._estimate_cycles * (1.0 + MARGIN)
        opp = self._dvfs.opp_for_budget(
            DvfsComponents(tmem_s=0.0, ndep_cycles=cycles), ctx.budget_s
        )
        return Decision(opp, predicted_time_s=cycles / opp.freq_hz)

    def on_job_end(self, record: "JobRecord", ctx: JobContext) -> None:
        """PID update from the observed execution time.

        The controller sees time and frequency, so its cycle observation
        is ``t * f`` — which bakes in the (wrong for memory-bound jobs)
        assumption that all time scales with frequency.  That modelling
        error is part of the baseline, not a bug.
        """
        observed_cycles = record.exec_time_s * record.opp_mhz * 1e6
        if self._estimate_cycles is None:
            self._estimate_cycles = observed_cycles
            return
        error = observed_cycles - self._estimate_cycles
        self._integral += error
        derivative = error - self._last_error
        self._last_error = error
        kp = KP_UP if error > 0 else KP_DOWN
        self._estimate_cycles = max(
            0.0,
            self._estimate_cycles
            + kp * error
            + KI * self._integral
            + KD * derivative,
        )
