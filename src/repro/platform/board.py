"""The Board: a stateful facade over the platform substrate.

A :class:`Board` owns a virtual clock, a current operating point, an
energy meter, and models for execution time, power, and DVFS switching.
The runtime executor times a job's Work with :attr:`cpu` and drives the
board with three primitives:

- :meth:`busy_run` — run fully active for a fixed duration (a job's work,
  a prediction slice);
- :meth:`set_frequency` — perform a DVFS switch (costs time and energy);
- :meth:`idle_until` — clock-gated wait until an absolute time.

Each primitive draws constant power over one interval of simulated time,
a *segment*.  Energy is the exact integral of power over the segments,
folded as they happen; it stands in for the ODROID-XU3's INA231 sensors,
which sample at ~213 Hz and integrate over time (paper §5.1).
"""

from __future__ import annotations

from math import inf
from typing import NamedTuple

from repro.platform.clock import VirtualClock
from repro.platform.cpu import SimulatedCpu
from repro.platform.jitter import JitterModel, NoJitter
from repro.platform.opp import OperatingPoint, OppTable, default_xu3_a7_table
from repro.platform.power import PowerModel, default_a7_power_model
from repro.platform.switching import SwitchLatencyModel

__all__ = ["Board"]

#: Activity factor of the cluster while its regulator settles.
SWITCH_ACTIVITY = 0.3


class LevelWatts(NamedTuple):
    """A power model's watts at each level of an OPP table, by index.

    ``counterfactual`` is what the energy ledger's performance-governor
    counterfactual charges per second of execution at a level: the same
    cycles run fully active at fmax for ``f / fmax`` of the second, and
    idle at fmax for the rest.  ``mhz`` is each level's frequency, the
    key the ledger files the level's joules under.
    """

    busy: tuple[float, ...]
    idle: tuple[float, ...]
    switch: tuple[float, ...]
    counterfactual: tuple[float, ...]
    mhz: tuple[float, ...]


#: (power model, OPP table) -> their LevelWatts.  Both are immutable, so
#: a pair is priced once per process, not once per board.
_LEVEL_WATTS: dict[tuple[PowerModel, OppTable], LevelWatts] = {}


def level_watts(power: PowerModel, opps: OppTable) -> LevelWatts:
    """The watts :class:`Board` charges at each level: fully active, idle
    (``power.idle_activity``) and switching (:data:`SWITCH_ACTIVITY`)."""
    key = (power, opps)
    table = _LEVEL_WATTS.get(key)
    if table is None:
        busy, idle, switch = (
            tuple(power.power(opp, activity) for opp in opps)
            for activity in (1.0, power.idle_activity, SWITCH_ACTIVITY)
        )
        fmax = opps.fmax
        busy_w, idle_w = busy[fmax.index], idle[fmax.index]
        counterfactual = tuple(
            busy_frac * busy_w + (1.0 - busy_frac) * idle_w
            for busy_frac in (opp.freq_hz / fmax.freq_hz for opp in opps)
        )
        table = _LEVEL_WATTS[key] = LevelWatts(
            busy,
            idle,
            switch,
            counterfactual,
            tuple(opp.freq_mhz for opp in opps),
        )
    return table


class Board:
    """Simulated development board (the ODROID-XU3 stand-in).

    Attributes:
        opps: Available DVFS operating points.
        cpu: Execution-time model (with jitter).
        power: Power model (read-only: the board prices its segments
            from it once, at construction).
        switcher: DVFS switch latency model.
    """

    def __init__(
        self,
        opps: OppTable | None = None,
        power: PowerModel | None = None,
        switcher: SwitchLatencyModel | None = None,
        jitter: JitterModel | None = None,
        initial_opp: OperatingPoint | None = None,
    ):
        self.opps = opps if opps is not None else default_xu3_a7_table()
        self._power = power if power is not None else default_a7_power_model()
        self.switcher = (
            switcher
            if switcher is not None
            else SwitchLatencyModel(self.opps)
        )
        if self.switcher.opps != self.opps:
            raise ValueError(
                "Board: switcher was built for a different OPP table"
            )
        self.cpu = SimulatedCpu(jitter if jitter is not None else NoJitter())
        self.clock = VirtualClock()
        self._watts = level_watts(self._power, self.opps)
        self._energy_j = 0.0
        self._energy_by_tag: dict[str, float] = {}
        self._opp = initial_opp if initial_opp is not None else self.opps.fmax
        self.switch_count = 0
        self._observer = None

    def set_segment_observer(self, observer) -> None:
        """Attach a callback invoked for every power segment.

        The observer is called as
        ``observer(start_s, end_s, power_w, tag, opp_index)`` right after
        the segment's energy, ``power_w * (end_s - start_s)``, is folded
        into the board's totals.  ``opp_index`` is the operating point
        the energy attributes to — the level the segment ran at, or, for
        a DVFS switch (whose power is the mean across the transition),
        the *destination* level.  This is the attribution hook the energy
        ledger subscribes to; it must not mutate the board.  Pass
        ``None`` to detach.
        """
        self._observer = observer

    @property
    def power(self) -> PowerModel:
        """The power model the board's segments are priced with."""
        return self._power

    @property
    def now(self) -> float:
        """Current simulated time, seconds."""
        return self.clock.now

    @property
    def current_opp(self) -> OperatingPoint:
        """The operating point the cluster is currently running at."""
        return self._opp

    def _record(
        self, duration_s: float, power_w: float, tag: str, opp_index: int
    ) -> None:
        """Advance the clock over one segment and fold in its energy."""
        clock = self.clock
        start = clock.now
        end = clock.advance(duration_s)
        energy = power_w * (end - start)
        by_tag = self._energy_by_tag
        by_tag[tag] = by_tag.get(tag, 0.0) + energy
        self._energy_j += energy
        if self._observer is not None:
            self._observer(start, end, power_w, tag, opp_index)

    def busy_run(self, duration_s: float, tag: str) -> float:
        """Run fully active for a fixed duration (e.g. a prediction slice)."""
        if not 0.0 <= duration_s < inf:
            raise ValueError(
                "Board.busy_run: duration_s must be a finite number >= 0, "
                f"got {duration_s!r}"
            )
        if duration_s > 0:
            index = self._opp.index
            self._record(duration_s, self._watts.busy[index], tag, index)
        return duration_s

    def set_frequency(self, target: OperatingPoint, tag: str = "switch") -> float:
        """Switch to ``target``; returns the switch latency in seconds.

        During the regulator settle the cluster is stalled but still
        powered; we charge the mean of the old and new power levels, which
        matches the monotone V(t) ramp to first order.
        """
        if target.index == self._opp.index:
            return 0.0
        latency = self.switcher.sample_s(self._opp, target)
        watts = self._watts.switch
        # A switch spans two levels; it is attributed to the destination
        # (the level the energy was spent getting to).
        self._record(
            latency,
            (watts[self._opp.index] + watts[target.index]) / 2.0,
            tag,
            target.index,
        )
        self._opp = target
        self.switch_count += 1
        return latency

    def set_frequency_free(self, target: OperatingPoint) -> None:
        """Switch instantaneously at zero energy cost.

        Models the idealized fast-switching circuits of the paper's §5.3
        limit study (Fig. 18): the level changes but neither time nor
        energy is charged, and the switch counter is not incremented.
        """
        self._opp = target

    def idle_until(self, time_s: float, tag: str = "idle") -> float:
        """Clock-gated wait until absolute time ``time_s``; returns the wait.

        No-op (returns 0) if ``time_s`` is already in the past.
        """
        if not -inf < time_s < inf:
            raise ValueError(
                "Board.idle_until: time_s must be a finite number, "
                f"got {time_s!r}"
            )
        now = self.clock.now
        if time_s <= now:
            return 0.0
        duration = time_s - now
        index = self._opp.index
        self._record(duration, self._watts.idle[index], tag, index)
        return duration

    def energy_j(self, tag: str | None = None) -> float:
        """Exact energy consumed so far (optionally for a single tag).

        The totals fold segment energies in the order the segments ran,
        starting from 0.0: the fold ``sum()`` over them performs.
        """
        if tag is None:
            return self._energy_j
        return self._energy_by_tag.get(tag, 0.0)
