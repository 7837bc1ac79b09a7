"""Power timeline and the sampled on-board power sensor.

The simulation records every interval of activity as a
:class:`PowerSegment` on a :class:`Timeline`.  Exact energy is the integral
of power over the segments.  The ODROID-XU3 measures power with INA231
sensors sampled at ~213 Hz and integrates over time (paper §5.1);
:class:`PowerSensor` reproduces that discrete sampling so the reproduction
can quantify sensor-quantization error against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PowerSegment", "Timeline", "PowerSensor"]


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
    """An append-only, time-ordered record of power segments.

    Energy and time totals are maintained as running accumulators
    updated on :meth:`append`, so :meth:`total_energy_j` is O(1)
    instead of O(segments) — callers (the executor's per-job metrics,
    the SLO watchdog, decision audits) read the total once per job,
    which used to make a run quadratic in its segment count.  The
    accumulators fold segment energies in append order starting from
    0.0, exactly the fold ``sum()`` over the segment list performs, so
    the totals are bit-identical to recomputing them.
    """

    def __init__(self):
        self._segments: list[PowerSegment] = []
        self._energy_by_tag: dict[str, float] = {}
        self._time_by_tag: dict[str, float] = {}
        self._total_energy_j = 0.0
        self._total_time_s = 0.0
        self._end_s = 0.0

    def append(self, segment: PowerSegment) -> None:
        """Add a segment; must start exactly where the previous one ended."""
        start = segment.start_s
        end = segment.end_s
        if self._segments and start < self._end_s:
            raise ValueError(
                f"segment starting at {start} overlaps previous "
                f"segment ending at {self._end_s}"
            )
        self._segments.append(segment)
        self._end_s = end
        # PowerSegment.duration_s and .energy_j, inlined (same operations).
        duration = end - start
        energy = segment.power_w * duration
        tag = segment.tag
        self._energy_by_tag[tag] = self._energy_by_tag.get(tag, 0.0) + energy
        self._time_by_tag[tag] = self._time_by_tag.get(tag, 0.0) + duration
        self._total_energy_j += energy
        self._total_time_s += duration

    @property
    def segments(self) -> tuple[PowerSegment, ...]:
        return tuple(self._segments)

    @property
    def end_s(self) -> float:
        """Time at which the last segment ends (0 when empty)."""
        return self._end_s

    def tags(self) -> tuple[str, ...]:
        """Every distinct tag recorded so far, in first-seen order."""
        return tuple(self._energy_by_tag)

    def energy_by_tag(self) -> dict[str, float]:
        """Exact energy per tag; values sum to :meth:`total_energy_j`."""
        return dict(self._energy_by_tag)

    def total_energy_j(self, tag: str | None = None) -> float:
        """Exact energy integral; restricted to one tag if given."""
        if tag is None:
            return self._total_energy_j
        return self._energy_by_tag.get(tag, 0.0)

    def total_time_s(self, tag: str | None = None) -> float:
        """Total duration covered by segments (optionally one tag)."""
        if tag is None:
            return self._total_time_s
        return self._time_by_tag.get(tag, 0.0)

    def power_at(self, t_s: float) -> float:
        """Instantaneous power at time ``t_s`` (0 outside all segments)."""
        for segment in self._segments:
            if segment.start_s <= t_s < segment.end_s:
                return segment.power_w
        return 0.0


class PowerSensor:
    """A discrete-sampling power meter (INA231-like).

    Samples instantaneous power at a fixed rate and integrates with the
    rectangle rule — exactly what the paper's measurement setup does at
    213 samples/second.  Sampling error vanishes as the rate grows, which
    the test suite verifies.
    """

    def __init__(self, sample_hz: float = 213.0):
        if sample_hz <= 0:
            raise ValueError(f"sample rate must be positive, got {sample_hz}")
        self.sample_hz = sample_hz

    def sample_powers(self, timeline: Timeline) -> list[tuple[float, float]]:
        """(time, power) samples covering the whole timeline."""
        period = 1.0 / self.sample_hz
        end = timeline.end_s
        # Integer sample index avoids float accumulation drift in the count.
        count = int(end * self.sample_hz - 1e-9) + 1 if end > 0 else 0
        return [
            (i * period, timeline.power_at(i * period)) for i in range(count)
        ]

    def measure_energy_j(self, timeline: Timeline) -> float:
        """Energy estimated from discrete samples (joules)."""
        period = 1.0 / self.sample_hz
        return sum(p * period for _, p in self.sample_powers(timeline))
