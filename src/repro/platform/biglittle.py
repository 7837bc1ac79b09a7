"""Heterogeneous (big.LITTLE) operating settings — paper §3.5 extension.

The paper notes its last pipeline stage "could be substituted to support
other performance-energy trade-off mechanisms, such as heterogeneous
cores".  The evaluation platform (Exynos 5422) is in fact big.LITTLE:
a power-efficient Cortex-A7 cluster next to a fast, power-hungry
Cortex-A15 cluster.

This module merges both clusters' DVFS levels into one ladder of
*operating settings* ordered by **effective frequency** — the real clock
times the cluster's instructions-per-cycle factor — so the unmodified
DVFS model (``t = T_mem + N_dep / f_eff``) and every existing governor
work across clusters.  Non-Pareto settings (slower AND hungrier than an
alternative) are pruned, exactly like an energy-aware scheduler's
capacity table, so "lowest feasible effective frequency" remains
"lowest feasible power".  Switching across clusters pays an extra
migration cost (cache warm-up and task hand-off).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.platform.opp import OperatingPoint, OppTable
from repro.platform.power import PowerModel
from repro.platform.switching import SwitchLatencyModel

__all__ = [
    "ClusterSpec",
    "ClusterOperatingPoint",
    "HeterogeneousPowerModel",
    "MigrationAwareSwitchModel",
    "LITTLE_A7",
    "BIG_A15",
    "build_biglittle_platform",
]


@dataclass(frozen=True)
class ClusterSpec:
    """Physics of one core cluster.

    Attributes:
        name: Cluster label ("A7", "A15").
        perf_factor: Throughput relative to the little cluster at equal
            clock (the A15's wide out-of-order pipeline retires ~1.9x
            the A7's instructions per cycle on these workloads).
        c_eff_farads: Effective switched capacitance.
        i_leak_amps: Leakage current.
        freq_range_mhz: (min, max, step) of the real clock.
        voltage_range_v: (v_at_min, v_at_max), linear in frequency.
    """

    name: str
    perf_factor: float
    c_eff_farads: float
    i_leak_amps: float
    freq_range_mhz: tuple[int, int, int]
    voltage_range_v: tuple[float, float]

    def points(self) -> list["ClusterOperatingPoint"]:
        """This cluster's settings (indices assigned later by the table)."""
        lo, hi, step = self.freq_range_mhz
        v_lo, v_hi = self.voltage_range_v
        out = []
        for mhz in range(lo, hi + 1, step):
            frac = (mhz - lo) / max(hi - lo, 1)
            out.append(
                ClusterOperatingPoint(
                    index=-1,  # placeholder; set when the ladder is built
                    freq_hz=mhz * 1e6 * self.perf_factor,
                    voltage_v=v_lo + (v_hi - v_lo) * frac,
                    cluster=self.name,
                    real_freq_hz=mhz * 1e6,
                    c_eff_farads=self.c_eff_farads,
                    i_leak_amps=self.i_leak_amps,
                )
            )
        return out


@dataclass(frozen=True, order=True)
class ClusterOperatingPoint(OperatingPoint):
    """An operating setting: a cluster plus a real clock frequency.

    ``freq_hz`` (inherited) is the EFFECTIVE frequency — real clock x
    perf factor — which is what the timing model consumes.  The physical
    fields live alongside for the power model.
    """

    cluster: str = ""
    real_freq_hz: float = 0.0
    c_eff_farads: float = 0.0
    i_leak_amps: float = 0.0

    def __str__(self) -> str:
        return (
            f"{self.cluster}@{self.real_freq_hz / 1e6:.0f}MHz"
            f"(eff {self.freq_mhz:.0f})"
        )


#: The Exynos 5422's LITTLE cluster (matches the homogeneous default).
LITTLE_A7 = ClusterSpec(
    name="A7",
    perf_factor=1.0,
    c_eff_farads=3.0e-10,
    i_leak_amps=0.05,
    freq_range_mhz=(200, 1400, 100),
    voltage_range_v=(0.90, 1.25),
)

#: The big cluster: ~1.9x throughput per MHz, ~4x the capacitance.
BIG_A15 = ClusterSpec(
    name="A15",
    perf_factor=1.9,
    c_eff_farads=1.2e-9,
    i_leak_amps=0.18,
    freq_range_mhz=(800, 2000, 100),
    voltage_range_v=(0.95, 1.30),
)


class HeterogeneousPowerModel(PowerModel):
    """Power model that honours per-setting cluster physics.

    Falls back to the base constants for plain operating points, so a
    heterogeneous board remains compatible with homogeneous tables.
    """

    def dynamic_power(self, opp: OperatingPoint, activity: float = 1.0) -> float:
        if not 0 <= activity <= 1:
            raise ValueError(f"activity must be in [0, 1], got {activity}")
        if isinstance(opp, ClusterOperatingPoint):
            return (
                opp.c_eff_farads
                * opp.voltage_v**2
                * opp.real_freq_hz
                * activity
            )
        return super().dynamic_power(opp, activity)

    def leakage_power(self, opp: OperatingPoint) -> float:
        if isinstance(opp, ClusterOperatingPoint):
            return opp.i_leak_amps * opp.voltage_v
        return super().leakage_power(opp)


class MigrationAwareSwitchModel(SwitchLatencyModel):
    """DVFS switch latency plus a cross-cluster migration penalty.

    Moving the task between clusters costs extra: the scheduler hand-off
    plus refilling cold caches on the destination core.
    """

    def __init__(self, *args, migration_s: float = 2.0e-3, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0.0 <= migration_s < math.inf:
            raise ValueError(
                "MigrationAwareSwitchModel: migration_s must be a finite "
                f"number >= 0, got {migration_s!r}"
            )
        self.migration_s = migration_s

    def nominal_s(self, start: OperatingPoint, end: OperatingPoint) -> float:
        base = super().nominal_s(start, end)
        start_cluster = getattr(start, "cluster", None)
        end_cluster = getattr(end, "cluster", None)
        if start_cluster != end_cluster:
            return base + self.migration_s
        return base


def build_biglittle_platform(
    little: ClusterSpec = LITTLE_A7,
    big: ClusterSpec = BIG_A15,
    switch_seed: int = 0,
) -> tuple[OppTable, HeterogeneousPowerModel, MigrationAwareSwitchModel]:
    """Merged Pareto ladder plus matching power and switch models.

    Candidate settings from both clusters are ordered by effective
    frequency; a setting survives only if nothing at or above its
    effective frequency draws less full-activity power (Pareto pruning).
    The result keeps the invariant every governor relies on: walking the
    ladder upward trades energy for speed.
    """
    power = HeterogeneousPowerModel(
        c_eff_farads=little.c_eff_farads, i_leak_amps=little.i_leak_amps
    )
    candidates = little.points() + big.points()
    candidates.sort(key=lambda p: p.freq_hz)

    def full_power(point: ClusterOperatingPoint) -> float:
        return (
            point.c_eff_farads * point.voltage_v**2 * point.real_freq_hz
            + point.i_leak_amps * point.voltage_v
        )

    pareto: list[ClusterOperatingPoint] = []
    # Walk from the fastest down; keep a setting only if it is cheaper
    # than everything faster than it.
    cheapest_so_far = float("inf")
    for point in reversed(candidates):
        p = full_power(point)
        if p < cheapest_so_far:
            pareto.append(point)
            cheapest_so_far = p
    pareto.reverse()

    points = [
        ClusterOperatingPoint(
            index=i,
            freq_hz=p.freq_hz,
            voltage_v=p.voltage_v,
            cluster=p.cluster,
            real_freq_hz=p.real_freq_hz,
            c_eff_farads=p.c_eff_farads,
            i_leak_amps=p.i_leak_amps,
        )
        for i, p in enumerate(pareto)
    ]
    table = OppTable(points, require_monotone_voltage=False)
    switcher = MigrationAwareSwitchModel(table, seed=switch_seed)
    return table, power, switcher
