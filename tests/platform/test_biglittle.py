"""Tests for the heterogeneous big.LITTLE platform extension."""

import pytest

from repro.platform.biglittle import (
    BIG_A15,
    LITTLE_A7,
    HeterogeneousPowerModel,
    MigrationAwareSwitchModel,
    build_biglittle_platform,
)
from repro.platform.board import Board
from repro.platform.cpu import SimulatedCpu, Work
from repro.platform.opp import OperatingPoint


@pytest.fixture(scope="module")
def platform():
    return build_biglittle_platform()


class TestLadderConstruction:
    def test_both_clusters_present(self, platform):
        table, _, _ = platform
        clusters = {p.cluster for p in table}
        assert clusters == {"A7", "A15"}

    def test_ordered_by_effective_frequency(self, platform):
        table, _, _ = platform
        freqs = [p.freq_hz for p in table]
        assert freqs == sorted(freqs)

    def test_effective_frequency_includes_perf_factor(self, platform):
        table, _, _ = platform
        a15 = [p for p in table if p.cluster == "A15"]
        for p in a15:
            assert p.freq_hz == pytest.approx(
                p.real_freq_hz * BIG_A15.perf_factor
            )

    def test_pareto_power_monotone_in_effective_frequency(self, platform):
        """The pruning invariant: faster settings always cost more power,
        so 'lowest feasible frequency' remains 'lowest feasible power'."""
        table, power, _ = platform
        powers = [power.power(p, 1.0) for p in table]
        assert powers == sorted(powers)

    def test_fastest_setting_is_big_cluster(self, platform):
        table, _, _ = platform
        assert table.fmax.cluster == "A15"
        assert table.fmin.cluster == "A7"

    def test_a7_ladder_matches_homogeneous_default(self, platform):
        table, _, _ = platform
        a7 = [p for p in table if p.cluster == "A7"]
        assert len(a7) == 13
        assert a7[0].real_freq_hz == 200e6
        assert a7[-1].real_freq_hz == 1400e6


class TestHeterogeneousPower:
    def test_big_cluster_hungrier_at_equal_effective_speed(self, platform):
        table, power, _ = platform
        a7_1400 = next(
            p for p in table if p.cluster == "A7" and p.real_freq_hz == 1400e6
        )
        a15_800 = next(
            p for p in table if p.cluster == "A15" and p.real_freq_hz == 800e6
        )
        # 1520 effective vs 1400 effective: only ~9% faster but much hungrier.
        assert power.power(a15_800) > power.power(a7_1400) * 1.3

    def test_falls_back_to_base_for_plain_points(self):
        power = HeterogeneousPowerModel(c_eff_farads=3e-10, i_leak_amps=0.05)
        plain = OperatingPoint(0, 1e9, 1.0)
        assert power.power(plain) == pytest.approx(
            3e-10 * 1e9 + 0.05, rel=1e-9
        )

    def test_activity_validated(self, platform):
        table, power, _ = platform
        with pytest.raises(ValueError):
            power.dynamic_power(table.fmax, activity=2.0)


class TestTiming:
    def test_work_runs_faster_on_big_cluster(self, platform):
        table, _, _ = platform
        cpu = SimulatedCpu()
        work = Work(cycles=1.4e9)
        a7_max = next(
            p for p in table if p.cluster == "A7" and p.real_freq_hz == 1400e6
        )
        a15_min = next(
            p for p in table if p.cluster == "A15" and p.real_freq_hz == 800e6
        )
        assert cpu.ideal_time(work, a15_min) < cpu.ideal_time(work, a7_max)


class TestMigration:
    def test_cross_cluster_switch_costs_more(self, platform):
        table, _, switcher = platform
        a7_top = next(
            p
            for p in table
            if p.cluster == "A7" and p.real_freq_hz == 1400e6
        )
        a15_bottom = next(
            p
            for p in table
            if p.cluster == "A15" and p.real_freq_hz == 800e6
        )
        same_cluster = switcher.nominal_s(table[0], a7_top)
        cross = switcher.nominal_s(a7_top, a15_bottom)
        assert cross >= same_cluster
        assert cross >= switcher.migration_s

    def test_within_cluster_has_no_migration_penalty(self, platform):
        table, _, switcher = platform
        a7_points = [p for p in table if p.cluster == "A7"]
        nominal = switcher.nominal_s(a7_points[0], a7_points[1])
        plain = MigrationAwareSwitchModel(table, migration_s=0.0).nominal_s(
            a7_points[0], a7_points[1]
        )
        assert nominal == pytest.approx(plain)

    def test_negative_migration_rejected(self, platform):
        table, _, _ = platform
        with pytest.raises(ValueError):
            MigrationAwareSwitchModel(table, migration_s=-1.0)


class TestBoardIntegration:
    def test_board_accepts_heterogeneous_platform(self, platform):
        table, power, switcher = platform
        board = Board(opps=table, power=power, switcher=switcher)
        duration = board.execute(Work(cycles=3.8e9))  # 1 s at eff 3.8 GHz
        assert duration == pytest.approx(1.0)
        little = table.fmin
        board.set_frequency(little)
        assert board.current_opp.cluster == "A7"

    def test_cluster_spec_points_cover_range(self):
        points = LITTLE_A7.points()
        assert len(points) == 13
        assert points[0].real_freq_hz == 200e6
