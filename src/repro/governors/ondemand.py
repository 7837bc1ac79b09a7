"""A Linux ``ondemand``-style governor, for ablation completeness.

Samples utilization like ``interactive`` (at the same period) but
ramps differently: jump to
fmax above the up-threshold, otherwise step *down* one level at a time
when utilization is comfortably low.  Not a paper baseline; included
because DESIGN.md calls for the family of stock governors.
"""

from __future__ import annotations

from repro.governors.base import Decision, Governor, JobContext
from repro.governors.interactive import SAMPLE_PERIOD_S
from repro.platform.opp import OperatingPoint, OppTable

__all__ = ["OndemandGovernor"]

#: Utilization above which it sprints to fmax (Linux ondemand's default
#: ``up_threshold`` of 80%).
UP_THRESHOLD = 0.80
#: Utilization below which it steps one level down.
DOWN_THRESHOLD = 0.40


class OndemandGovernor(Governor):
    """Sampled governor: sprint to fmax, decay one step at a time."""

    timer_period_s = SAMPLE_PERIOD_S

    def __init__(self, opps: OppTable):
        self.opps = opps
        self._board = None

    @property
    def name(self) -> str:
        return "ondemand"

    def start(self, board, budget_s: float) -> None:
        self._board = board

    def decide(self, ctx: JobContext) -> Decision | None:
        return None

    def on_timer(
        self, now_s: float, utilization: float
    ) -> OperatingPoint | None:
        current = self._board.current_opp if self._board else self.opps.fmax
        if utilization > UP_THRESHOLD:
            return self.opps.fmax
        if utilization < DOWN_THRESHOLD and current.index > 0:
            return self.opps[current.index - 1]
        return None
