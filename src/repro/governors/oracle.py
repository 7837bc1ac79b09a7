"""Oracle controller: perfect knowledge of each job's work (paper §5.3).

The paper implements its oracle by replaying recorded job times from a
previous run with the same inputs.  The simulation equivalent is exact
knowledge of the job's :class:`~repro.platform.cpu.Work`: the oracle
computes the true (jitter-free) execution time at every level and picks
the lowest one that fits.  Run it with overhead charging disabled, as the
paper does — its purpose is an upper bound on what better prediction
could buy (Fig. 18).
"""

from __future__ import annotations

from repro.governors.base import Decision, Governor, JobContext
from repro.platform.cpu import SimulatedCpu
from repro.platform.opp import OppTable

__all__ = ["OracleGovernor"]


class OracleGovernor(Governor):
    """Chooses the lowest frequency whose true job time fits the budget.

    Attributes:
        opps: Operating points.
        margin: Safety factor over the true time, absorbing run-to-run
            jitter the oracle cannot foresee (recorded times from a prior
            run differ from this run's times by exactly that noise).
    """

    reads_oracle_work = True

    def __init__(self, opps: OppTable, margin: float = 0.05):
        if margin < 0:
            raise ValueError("margin must be non-negative")
        self.opps = opps
        self.margin = margin
        self._cpu = SimulatedCpu()

    @property
    def name(self) -> str:
        return "oracle"

    def decide(self, ctx: JobContext) -> Decision | None:
        if ctx.oracle_work is None:
            raise ValueError(
                "OracleGovernor requires oracle_work in the job context"
            )
        factor = 1.0 + self.margin
        budget = ctx.deadline_s - ctx.board.now
        for opp in self.opps:
            time = self._cpu.ideal_time(ctx.oracle_work, opp) * factor
            if time <= budget:
                return Decision(opp, predicted_time_s=time)
        fmax = self.opps.fmax
        return Decision(
            fmax,
            predicted_time_s=self._cpu.ideal_time(ctx.oracle_work, fmax) * factor,
        )
