"""Tests for the CPU timing model, virtual clock, and jitter models."""

import pytest
from hypothesis import given, strategies as st

from repro.platform.clock import VirtualClock
from repro.platform.cpu import SimulatedCpu, Work
from repro.platform.jitter import LogNormalJitter, NoJitter
from repro.platform.opp import OperatingPoint

LOW = OperatingPoint(0, 200e6, 0.90)
HIGH = OperatingPoint(12, 1400e6, 1.25)


class TestWork:
    def test_rejects_negative_components(self):
        with pytest.raises(ValueError):
            Work(cycles=-1.0)
        with pytest.raises(ValueError):
            Work(cycles=1.0, mem_time_s=-0.1)

    def test_addition(self):
        total = Work(10, 0.5) + Work(5, 0.25)
        assert total.cycles == 15
        assert total.mem_time_s == 0.75

    def test_scaled(self):
        w = Work(10, 0.5).scaled(2.0)
        assert w.cycles == 20
        assert w.mem_time_s == 1.0

    def test_scaled_rejects_negative(self):
        with pytest.raises(ValueError):
            Work(10, 0.5).scaled(-1.0)

    def test_zero(self):
        assert Work.zero().cycles == 0
        assert Work.zero().mem_time_s == 0


class TestSimulatedCpu:
    def test_ideal_time_formula(self):
        cpu = SimulatedCpu()
        work = Work(cycles=2e8, mem_time_s=0.01)
        assert cpu.ideal_time(work, HIGH) == pytest.approx(0.01 + 2e8 / 1.4e9)

    def test_time_decreases_with_frequency(self):
        cpu = SimulatedCpu()
        work = Work(cycles=2e8, mem_time_s=0.01)
        assert cpu.ideal_time(work, HIGH) < cpu.ideal_time(work, LOW)

    def test_mem_time_does_not_scale(self):
        cpu = SimulatedCpu()
        work = Work(cycles=0.0, mem_time_s=0.01)
        assert cpu.ideal_time(work, HIGH) == cpu.ideal_time(work, LOW)

    def test_no_jitter_execution_equals_ideal(self):
        cpu = SimulatedCpu(NoJitter())
        work = Work(cycles=2e8, mem_time_s=0.01)
        assert cpu.execution_time(work, HIGH) == cpu.ideal_time(work, HIGH)

    def test_min_feasible_time_at_fmax(self):
        cpu = SimulatedCpu()
        work = Work(cycles=2e8)
        assert cpu.min_feasible_time(work, HIGH) == cpu.ideal_time(work, HIGH)

    @given(
        cycles=st.floats(min_value=0, max_value=1e12),
        mem=st.floats(min_value=0, max_value=10),
    )
    def test_linearity_in_inverse_frequency(self, cycles, mem):
        """t(f) = T_mem + N/f exactly — the Fig. 9 linearity by construction."""
        cpu = SimulatedCpu()
        work = Work(cycles=cycles, mem_time_s=mem)
        t_low = cpu.ideal_time(work, LOW)
        t_high = cpu.ideal_time(work, HIGH)
        # Recover the components from two points, as the DVFS model does.
        n_dep = (
            LOW.freq_hz * HIGH.freq_hz * (t_low - t_high)
            / (HIGH.freq_hz - LOW.freq_hz)
        )
        assert n_dep == pytest.approx(cycles, rel=1e-6, abs=1e-3)


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_custom_start(self):
        assert VirtualClock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock(-1.0)

    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == 2.0

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-0.1)

    def test_advance_to_future(self):
        clock = VirtualClock()
        clock.advance_to(3.0)
        assert clock.now == 3.0

    def test_advance_to_past_is_noop(self):
        clock = VirtualClock(5.0)
        clock.advance_to(3.0)
        assert clock.now == 5.0


class TestJitter:
    def test_no_jitter_always_one(self):
        j = NoJitter()
        assert all(j.sample() == 1.0 for _ in range(10))

    def test_zero_sigma_is_deterministic(self):
        j = LogNormalJitter(0.0, seed=3)
        assert all(j.sample() == 1.0 for _ in range(10))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            LogNormalJitter(-0.1)

    def test_bad_max_factor_rejected(self):
        with pytest.raises(ValueError):
            LogNormalJitter(0.1, max_factor=0.5)

    def test_samples_positive_and_capped(self):
        j = LogNormalJitter(0.5, seed=7, max_factor=1.5)
        for _ in range(1000):
            f = j.sample()
            assert 1 / 1.5 <= f <= 1.5

    def test_seed_reproducibility(self):
        a = LogNormalJitter(0.1, seed=42)
        b = LogNormalJitter(0.1, seed=42)
        assert [a.sample() for _ in range(20)] == [b.sample() for _ in range(20)]

    def test_different_seeds_differ(self):
        a = LogNormalJitter(0.1, seed=1)
        b = LogNormalJitter(0.1, seed=2)
        assert [a.sample() for _ in range(5)] != [b.sample() for _ in range(5)]

    def test_median_near_one(self):
        j = LogNormalJitter(0.05, seed=11)
        samples = sorted(j.sample() for _ in range(4001))
        assert samples[2000] == pytest.approx(1.0, abs=0.01)
