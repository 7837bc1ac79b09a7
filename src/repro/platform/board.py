"""The Board: a stateful facade over the platform substrate.

A :class:`Board` owns a virtual clock, a current operating point, a power
timeline, and models for execution time, power, and DVFS switching.  The
runtime executor times a job's Work with :attr:`cpu` and drives the board
with three primitives:

- :meth:`busy_run` — run fully active for a fixed duration (a job's work,
  a prediction slice);
- :meth:`set_frequency` — perform a DVFS switch (costs time and energy);
- :meth:`idle_until` — clock-gated wait until an absolute time.
"""

from __future__ import annotations

from repro.platform.clock import VirtualClock
from repro.platform.cpu import SimulatedCpu
from repro.platform.jitter import JitterModel, NoJitter
from repro.platform.opp import OperatingPoint, OppTable, default_xu3_a7_table
from repro.platform.power import PowerModel, default_a7_power_model
from repro.platform.sensor import PowerSegment, Timeline
from repro.platform.switching import SwitchLatencyModel

__all__ = ["Board"]


class Board:
    """Simulated development board (the ODROID-XU3 stand-in).

    Attributes:
        opps: Available DVFS operating points.
        cpu: Execution-time model (with jitter).
        power: Power model.
        switcher: DVFS switch latency model.
        timeline: Power history; energy accounting reads from here.
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
        self.power = power if power is not None else default_a7_power_model()
        self.switcher = (
            switcher
            if switcher is not None
            else SwitchLatencyModel(self.opps)
        )
        if self.switcher.opps is not self.opps and len(self.switcher.opps) != len(
            self.opps
        ):
            raise ValueError("switch model built for a different OPP table")
        self.cpu = SimulatedCpu(jitter if jitter is not None else NoJitter())
        self.clock = VirtualClock()
        self.timeline = Timeline()
        self._opp = initial_opp if initial_opp is not None else self.opps.fmax
        self.switch_count = 0
        self._observer = None

    def set_segment_observer(self, observer) -> None:
        """Attach a callback invoked for every appended power segment.

        The observer is called as ``observer(segment, opp_index)`` right
        after the segment lands on the timeline, where ``opp_index`` is
        the operating point the energy attributes to — the level the
        segment ran at, or, for a DVFS switch (whose power is the mean
        across the transition), the *destination* level.  This is the
        attribution hook the energy ledger subscribes to; it must not
        mutate the board.  Pass ``None`` to detach.
        """
        self._observer = observer

    @property
    def now(self) -> float:
        """Current simulated time, seconds."""
        return self.clock.now

    @property
    def current_opp(self) -> OperatingPoint:
        """The operating point the cluster is currently running at."""
        return self._opp

    def _record(self, duration_s: float, activity: float, tag: str) -> None:
        start = self.clock.now
        end = self.clock.advance(duration_s)
        segment = PowerSegment(
            start, end, self.power.power(self._opp, activity), tag
        )
        self.timeline.append(segment)
        if self._observer is not None:
            self._observer(segment, self._opp.index)

    def busy_run(self, duration_s: float, tag: str) -> float:
        """Run fully active for a fixed duration (e.g. a prediction slice)."""
        if duration_s < 0:
            raise ValueError(f"duration must be non-negative, got {duration_s}")
        if duration_s > 0:
            self._record(duration_s, activity=1.0, tag=tag)
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
        start_power = self.power.power(self._opp, activity=0.3)
        end_power = self.power.power(target, activity=0.3)
        start = self.clock.now
        end = self.clock.advance(latency)
        segment = PowerSegment(
            start, end, (start_power + end_power) / 2.0, tag
        )
        self.timeline.append(segment)
        if self._observer is not None:
            # A switch spans two levels; attribute it to the destination
            # (the level the energy was spent getting to).
            self._observer(segment, target.index)
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
        if time_s <= self.clock.now:
            return 0.0
        duration = time_s - self.clock.now
        self._record(duration, activity=self.power.idle_activity, tag=tag)
        return duration

    def energy_j(self, tag: str | None = None) -> float:
        """Exact energy consumed so far (optionally for a single tag)."""
        return self.timeline.total_energy_j(tag)
