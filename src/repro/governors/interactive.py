"""The Linux ``interactive`` governor (the paper's main OS baseline).

Per the paper's description (§5.1): samples CPU utilization every 80 ms
and jumps to maximum frequency when utilization exceeds 85%.  Below the
go-to-max threshold it scales frequency to hold utilization near a target
load, like the real governor's ``target_loads`` logic.  It is completely
deadline-blind — that is exactly the weakness the paper exploits.
"""

from __future__ import annotations

from repro.governors.base import Decision, Governor, JobContext
from repro.platform.opp import OperatingPoint, OppTable

__all__ = ["InteractiveGovernor"]

#: Utilization sampling period (paper §5.1: 80 ms).
SAMPLE_PERIOD_S = 0.080
#: Utilization above which the governor jumps to fmax (paper §5.1: 85%).
HISPEED_LOAD = 0.85
#: Utilization the scaling rule holds below the go-to-max threshold.
#: Deliberately conservative (well under ``HISPEED_LOAD``), reproducing
#: the stock governor's profile in the paper's Fig. 15: modest energy
#: savings, low deadline misses.
TARGET_LOAD = 0.45
#: The input boost raises the clock to the lowest level at or above this
#: fraction of fmax.
HISPEED_FRAC = 0.55


class InteractiveGovernor(Governor):
    """Utilization-sampled governor with a go-to-max threshold.

    Attributes:
        opps: Operating points.
        hispeed_opp: The level the input boost raises the clock to.
    """

    timer_period_s = SAMPLE_PERIOD_S

    def __init__(self, opps: OppTable):
        self.opps = opps
        self.hispeed_opp = opps.lowest_at_or_above(
            HISPEED_FRAC * opps.fmax.freq_hz
        )
        self._board = None

    @property
    def name(self) -> str:
        return "interactive"

    def decide(self, ctx: JobContext) -> Decision | None:
        """Input boost: user interaction bumps the clock to hispeed.

        The stock governor raises frequency on touch/input events so the
        UI reacts before the next utilization sample; a job release is
        our analogue of an input event.  This is also why the real
        governor never settles at fmin on interactive apps — and why its
        energy savings trail prediction-based control (Fig. 15).
        """
        if ctx.board.current_opp.freq_hz < self.hispeed_opp.freq_hz:
            return Decision(self.hispeed_opp)
        return None

    def on_timer(
        self, now_s: float, utilization: float
    ) -> OperatingPoint | None:
        """Linux-interactive-like scaling rule.

        Above ``HISPEED_LOAD`` go straight to fmax.  Otherwise pick the
        lowest frequency that would have kept the observed load at or
        below ``TARGET_LOAD`` (busy cycles conserved: load*f invariant).
        """
        if utilization > HISPEED_LOAD:
            return self.opps.fmax
        current = self._board.current_opp if self._board else self.opps.fmax
        wanted_hz = utilization * current.freq_hz / TARGET_LOAD
        return self.opps.lowest_at_or_above(wanted_hz)

    def start(self, board, budget_s: float) -> None:
        self._board = board
