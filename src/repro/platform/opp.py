"""Discrete DVFS operating points (OPPs).

DVFS hardware exposes a finite set of (frequency, voltage) pairs.  The
predictive controller computes an ideal continuous frequency and then rounds
*up* to the smallest available frequency at or above it (paper §3.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "OperatingPoint",
    "OppTable",
    "default_xu3_a7_table",
    "default_xu3_a15_table",
]


@dataclass(frozen=True, order=True)
class OperatingPoint:
    """A single DVFS level: an index into the table plus its physics.

    Attributes:
        index: Position in the owning :class:`OppTable`, lowest frequency
            first.  Ordering of operating points follows ``index``.
        freq_hz: Clock frequency in hertz.
        voltage_v: Supply voltage in volts at this frequency.
    """

    index: int
    freq_hz: float
    voltage_v: float

    @property
    def freq_mhz(self) -> float:
        """Frequency expressed in megahertz (convenience for display)."""
        return self.freq_hz / 1e6

    def __str__(self) -> str:
        return f"{self.freq_mhz:.0f}MHz@{self.voltage_v:.3f}V"


class OppTable:
    """An ordered, validated collection of operating points.

    The table is immutable after construction.  Points must have strictly
    increasing frequency and — on a homogeneous cluster — non-decreasing
    voltage: a higher clock never runs at a *lower* voltage on real
    silicon.  Heterogeneous (big.LITTLE) ladders interleave two clusters'
    points by *effective* frequency, where that invariant genuinely does
    not hold; they pass ``require_monotone_voltage=False``.
    """

    def __init__(
        self,
        points: list[OperatingPoint],
        require_monotone_voltage: bool = True,
    ):
        if not points:
            raise ValueError("OppTable requires at least one operating point")
        for point in points:
            # Before sorting: a NaN frequency has no place in the order.
            for field in ("freq_hz", "voltage_v"):
                value = getattr(point, field)
                if not 0.0 < value < math.inf:
                    raise ValueError(
                        f"OppTable: point {point.index} {field} must be a "
                        f"finite number > 0, got {value!r}"
                    )
        ordered = sorted(points, key=lambda p: p.freq_hz)
        for i, point in enumerate(ordered):
            if point.index != i:
                raise ValueError(
                    f"operating point {point} has index {point.index}, "
                    f"expected {i} (indices must match frequency order)"
                )
        for low, high in zip(ordered, ordered[1:]):
            if high.freq_hz == low.freq_hz:
                raise ValueError(f"duplicate frequency {low.freq_hz} Hz")
            if require_monotone_voltage and high.voltage_v < low.voltage_v:
                raise ValueError(
                    f"voltage must be non-decreasing with frequency: "
                    f"{low} -> {high}"
                )
        self._points = tuple(ordered)
        # Boards look their power table up by (power model, table).
        self._hash = hash(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def __getitem__(self, index: int) -> OperatingPoint:
        return self._points[index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OppTable) and self._points == other._points

    def __hash__(self) -> int:
        return self._hash

    @property
    def fmin(self) -> OperatingPoint:
        """The lowest-frequency operating point."""
        return self._points[0]

    @property
    def fmax(self) -> OperatingPoint:
        """The highest-frequency operating point."""
        return self._points[-1]

    def lowest_at_or_above(self, freq_hz: float) -> OperatingPoint:
        """Smallest available frequency >= ``freq_hz``.

        This is how the predictive controller quantizes its continuous
        frequency request.  Requests above ``fmax`` saturate at ``fmax``
        (the job is then expected to miss its deadline; nothing faster
        exists).
        """
        for point in self._points:
            if point.freq_hz >= freq_hz:
                return point
        return self.fmax

    def nearest(self, freq_hz: float) -> OperatingPoint:
        """The operating point whose frequency is closest to ``freq_hz``."""
        return min(self._points, key=lambda p: abs(p.freq_hz - freq_hz))


def default_xu3_a7_table() -> OppTable:
    """Operating points modelled on the Exynos 5422 Cortex-A7 cluster.

    The ODROID-XU3's A7 cluster exposes 200 MHz–1400 MHz in 100 MHz steps.
    Voltages follow the near-linear ramp typical of the part (~0.9 V at the
    bottom of the curve up to ~1.25 V at the top).
    """
    freqs_mhz = range(200, 1500, 100)
    points = []
    for i, mhz in enumerate(freqs_mhz):
        frac = (mhz - 200) / (1400 - 200)
        voltage = 0.90 + 0.35 * frac
        points.append(OperatingPoint(index=i, freq_hz=mhz * 1e6, voltage_v=voltage))
    return OppTable(points)


def default_xu3_a15_table() -> OppTable:
    """Operating points modelled on the Exynos 5422 Cortex-A15 cluster.

    The big cluster clocks 800 MHz–2000 MHz.  The paper ran its main
    results on the A7 but notes "we saw similar trends when running on
    the A15 core" (§5.1); this table supports reproducing that check
    (``benchmarks/test_ablations.py::test_ablation_a15_platform``).
    """
    freqs_mhz = range(800, 2100, 100)
    points = []
    for i, mhz in enumerate(freqs_mhz):
        frac = (mhz - 800) / (2000 - 800)
        voltage = 0.95 + 0.35 * frac
        points.append(OperatingPoint(index=i, freq_hz=mhz * 1e6, voltage_v=voltage))
    return OppTable(points)
