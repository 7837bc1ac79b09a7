"""CMOS power model for the simulated CPU.

Active power at an operating point decomposes into switching (dynamic) and
leakage (static) components:

    P(f, V, a) = C_eff * V^2 * f * a  +  I_leak * V

where ``a`` is the activity factor (1.0 while a job runs, a small residual
while idling).  Only *ratios* of energy between governors matter for the
paper's normalized plots, but the constants below are calibrated so absolute
numbers land in the realistic range for a Cortex-A7 cluster (~0.1–0.8 W).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.platform.opp import OperatingPoint

__all__ = ["PowerModel", "default_a7_power_model", "default_a15_power_model"]


@dataclass(frozen=True)
class PowerModel:
    """Maps an operating point and activity factor to power in watts.

    Attributes:
        c_eff_farads: Effective switched capacitance of the cluster.
        i_leak_amps: Leakage current, modelled as proportional to voltage.
        idle_activity: Activity factor between jobs.  Interactive apps
            poll for input and vsync rather than entering deep cpuidle,
            so the "idle" loop still toggles a substantial fraction of
            the cluster — this is why the paper's §5.5 idling-at-fmin
            study finds so much energy left on the table.
    """

    c_eff_farads: float
    i_leak_amps: float
    idle_activity: float = 0.30

    def __post_init__(self) -> None:
        if not 0.0 < self.c_eff_farads < math.inf:
            raise ValueError(
                "PowerModel: c_eff_farads must be a finite number > 0, "
                f"got {self.c_eff_farads!r}"
            )
        if not 0.0 <= self.i_leak_amps < math.inf:
            raise ValueError(
                "PowerModel: i_leak_amps must be a finite number >= 0, "
                f"got {self.i_leak_amps!r}"
            )
        if not 0.0 <= self.idle_activity <= 1.0:
            raise ValueError(
                "PowerModel: idle_activity must be in [0, 1], "
                f"got {self.idle_activity!r}"
            )

    def dynamic_power(self, opp: OperatingPoint, activity: float = 1.0) -> float:
        """Switching power ``C_eff * V^2 * f * a`` in watts."""
        if not 0 <= activity <= 1:
            raise ValueError(f"activity must be in [0, 1], got {activity}")
        return self.c_eff_farads * opp.voltage_v**2 * opp.freq_hz * activity

    def leakage_power(self, opp: OperatingPoint) -> float:
        """Static power ``I_leak * V`` in watts."""
        return self.i_leak_amps * opp.voltage_v

    def power(self, opp: OperatingPoint, activity: float = 1.0) -> float:
        """Total power in watts at ``opp`` with the given activity factor."""
        return self.dynamic_power(opp, activity) + self.leakage_power(opp)


def default_a7_power_model() -> PowerModel:
    """Constants calibrated to a Cortex-A7 quad cluster.

    At 1400 MHz / 1.25 V full activity this yields ~0.66 W dynamic plus
    ~0.06 W leakage, in line with published Exynos 5422 LITTLE-cluster
    measurements.
    """
    return PowerModel(c_eff_farads=3.0e-10, i_leak_amps=0.05)


def default_a15_power_model() -> PowerModel:
    """Constants calibrated to a Cortex-A15 quad cluster.

    The big cluster's wide out-of-order pipeline toggles roughly four
    times the capacitance of the A7's and leaks substantially more —
    ~3.6 W dynamic at 2 GHz / 1.30 V, matching published Exynos 5422
    big-cluster measurements.
    """
    return PowerModel(c_eff_farads=1.2e-9, i_leak_amps=0.18)
