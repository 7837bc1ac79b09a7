"""A Linux ``conservative``-style governor.

The classic gradual sibling of ``ondemand``: instead of sprinting to
fmax on load, it steps the frequency up or down ONE level per sampling
period.  Completes the stock-governor family for ablations; like the
others it is deadline-blind.
"""

from __future__ import annotations

from repro.governors.base import Decision, Governor, JobContext
from repro.governors.interactive import SAMPLE_PERIOD_S
from repro.platform.opp import OperatingPoint, OppTable

__all__ = ["ConservativeGovernor"]

#: Utilization above which it steps one level up.
UP_THRESHOLD = 0.70
#: Utilization below which it steps one level down.
DOWN_THRESHOLD = 0.30


class ConservativeGovernor(Governor):
    """Sampled governor: one-step ramps in both directions."""

    timer_period_s = SAMPLE_PERIOD_S

    def __init__(self, opps: OppTable):
        self.opps = opps
        self._board = None

    @property
    def name(self) -> str:
        return "conservative"

    def start(self, board, budget_s: float) -> None:
        """Remember the board so timers can read the current level."""
        self._board = board

    def decide(self, ctx: JobContext) -> Decision | None:
        """Jobs are invisible; all decisions happen on the timer."""
        return None

    def on_timer(
        self, now_s: float, utilization: float
    ) -> OperatingPoint | None:
        """Step one level toward the load, never further."""
        current = self._board.current_opp if self._board else self.opps.fmax
        if utilization > UP_THRESHOLD and current.index < len(self.opps) - 1:
            return self.opps[current.index + 1]
        if utilization < DOWN_THRESHOLD and current.index > 0:
            return self.opps[current.index - 1]
        return None
