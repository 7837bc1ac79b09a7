"""Power timeline: the simulation's energy meter.

The simulation records every interval of activity as a
:class:`PowerSegment` on a :class:`Timeline`.  Energy is the exact
integral of power over the segments; it stands in for the ODROID-XU3's
INA231 sensors, which sample at ~213 Hz and integrate over time (paper
§5.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["PowerSegment", "Timeline"]


@dataclass(frozen=True)
class PowerSegment:
    """A half-open interval ``[start_s, end_s)`` of constant power draw.

    Attributes:
        start_s: Segment start time (seconds).
        end_s: Segment end time (seconds); must be >= start.
        power_w: Constant power over the interval, watts.
        tag: What the platform was doing ("job", "switch", "idle", ...).
    """

    start_s: float
    end_s: float
    power_w: float
    tag: str = ""

    def __post_init__(self) -> None:
        if self.end_s < self.start_s:
            raise ValueError(
                f"segment ends before it starts: [{self.start_s}, {self.end_s})"
            )
        if self.power_w < 0:
            raise ValueError(f"negative power {self.power_w} W")

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def energy_j(self) -> float:
        return self.power_w * self.duration_s


class Timeline:
    """The time-ordered record of power segments, as running totals.

    Energy totals are running accumulators updated on :meth:`append`, so
    :meth:`total_energy_j` is O(1) — callers (the executor's per-job
    metrics, the SLO watchdog, decision audits) read the total once per
    job.  The accumulators fold segment energies in append order starting
    from 0.0, exactly the fold ``sum()`` over the segments performs, so
    the totals are bit-identical to recomputing them.  Segments are not
    kept; :meth:`Board.set_segment_observer
    <repro.platform.board.Board.set_segment_observer>` sees each one.
    """

    def __init__(self):
        self._energy_by_tag: dict[str, float] = {}
        self._total_energy_j = 0.0
        self._end_s = -math.inf

    def append(self, segment: PowerSegment) -> None:
        """Add a segment; it must not start before the previous one ended."""
        start = segment.start_s
        if start < self._end_s:
            raise ValueError(
                f"segment starting at {start} overlaps previous "
                f"segment ending at {self._end_s}"
            )
        self._end_s = segment.end_s
        # PowerSegment.energy_j, inlined (the same operations).
        energy = segment.power_w * (segment.end_s - start)
        tag = segment.tag
        self._energy_by_tag[tag] = self._energy_by_tag.get(tag, 0.0) + energy
        self._total_energy_j += energy

    def total_energy_j(self, tag: str | None = None) -> float:
        """Exact energy integral; restricted to one tag if given."""
        if tag is None:
            return self._total_energy_j
        return self._energy_by_tag.get(tag, 0.0)
