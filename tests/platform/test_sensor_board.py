"""Tests for the Board facade and its exact energy meter."""

import pytest

from repro.platform.board import Board, level_watts
from repro.platform.cpu import Work
from repro.platform.jitter import LogNormalJitter
from repro.platform.opp import default_xu3_a7_table
from repro.platform.power import PowerModel
from repro.platform.switching import SwitchLatencyModel
from tests.platform.segments import record_segments


class TestBoardEnergy:
    def test_energy_sums_segments(self):
        board = Board()
        segments = record_segments(board)
        board.busy_run(1.0, "job")
        board.idle_until(2.0)
        assert board.energy_j() == segments[0].energy_j + segments[1].energy_j
        fmax = board.opps.fmax
        assert board.energy_j() == pytest.approx(
            board.power.power(fmax, 1.0)
            + board.power.power(fmax, board.power.idle_activity)
        )

    def test_energy_filtered_by_tag(self):
        board = Board()
        segments = record_segments(board)
        board.busy_run(1.0, "job")
        board.idle_until(2.0)
        assert board.energy_j("job") == segments[0].energy_j
        assert board.energy_j("idle") == segments[1].energy_j
        assert board.energy_j("switch") == 0.0

    def test_new_board_has_no_energy(self):
        board = Board()
        assert board.energy_j() == 0.0
        assert board.energy_j("job") == 0.0

    def test_segments_are_priced_by_the_power_model(self):
        """Busy at activity 1, idle at the model's idle activity, and a
        switch at the mean of both levels' power at activity 0.3."""
        board = Board()
        power, fmin, fmax = board.power, board.opps.fmin, board.opps.fmax
        segments = record_segments(board)
        board.busy_run(0.5, "job")
        board.set_frequency(fmin)
        board.idle_until(board.now + 0.5)
        busy, switch, idle = segments
        assert busy == (0.0, 0.5, power.power(fmax, 1.0), "job", fmax.index)
        assert switch.power_w == (
            power.power(fmax, 0.3) + power.power(fmin, 0.3)
        ) / 2.0
        assert (switch.tag, switch.opp_index) == ("switch", fmin.index)
        assert idle.power_w == power.power(fmin, power.idle_activity)
        assert idle.opp_index == fmin.index

    def test_zero_length_switch_carries_no_energy(self):
        opps = default_xu3_a7_table()
        free = SwitchLatencyModel(opps, kernel_overhead_s=0.0,
                                  settle_s_per_volt=0.0)
        board = Board(opps=opps, switcher=free)
        segments = record_segments(board)
        assert board.set_frequency(opps.fmin) == 0.0
        assert board.switch_count == 1
        assert segments[0].duration_s == 0.0
        assert board.energy_j("switch") == 0.0

    def test_power_is_read_only(self):
        board = Board()
        with pytest.raises(AttributeError):
            board.power = PowerModel(c_eff_farads=1e-9, i_leak_amps=0.1)

    def test_one_power_table_per_model_and_table(self):
        """Boards of one (power model, OPP table) pair share its table;
        an equal pair finds it too, another model gets its own."""
        a, b = Board(), Board()
        assert level_watts(a.power, a.opps) is level_watts(b.power, b.opps)
        other = PowerModel(c_eff_farads=1e-9, i_leak_amps=0.1)
        assert level_watts(other, a.opps) != level_watts(a.power, a.opps)


def run_work(board, work):
    """Run ``work`` at the board's level as the task runner does: one busy
    segment as long as the CPU model's time for it; returns that time."""
    return board.busy_run(
        board.cpu.execution_time(work, board.current_opp), "job"
    )


class TestBoard:
    def test_starts_at_fmax(self):
        board = Board()
        assert board.current_opp == board.opps.fmax

    def test_work_advances_clock_and_records_energy(self):
        board = Board()
        work = Work(cycles=1.4e9)  # exactly 1 s at 1400 MHz
        duration = run_work(board, work)
        assert duration == pytest.approx(1.0)
        assert board.now == pytest.approx(1.0)
        assert board.energy_j("job") > 0

    def test_switch_costs_time_and_counts(self):
        board = Board()
        latency = board.set_frequency(board.opps.fmin)
        assert latency > 0
        assert board.switch_count == 1
        assert board.current_opp == board.opps.fmin
        assert board.energy_j("switch") > 0

    def test_noop_switch_free(self):
        board = Board()
        assert board.set_frequency(board.opps.fmax) == 0.0
        assert board.switch_count == 0

    def test_idle_until_past_is_noop(self):
        board = Board()
        run_work(board, Work(cycles=1.4e9))
        assert board.idle_until(0.5) == 0.0

    def test_idle_until_future_records_idle_energy(self):
        board = Board()
        waited = board.idle_until(2.0)
        assert waited == pytest.approx(2.0)
        assert board.energy_j("idle") > 0
        idle_power = board.energy_j("idle") / 2.0
        assert idle_power < board.power.power(board.current_opp, 1.0)

    def test_busy_run_fixed_duration(self):
        board = Board()
        assert board.busy_run(0.25, tag="predictor") == 0.25
        assert board.now == pytest.approx(0.25)
        assert board.energy_j("predictor") > 0

    def test_busy_run_rejects_negative(self):
        board = Board()
        with pytest.raises(ValueError):
            board.busy_run(-1.0, tag="predictor")

    def test_job_at_low_frequency_takes_longer_but_less_energy(self):
        work = Work(cycles=1.4e9)
        fast = Board()
        t_fast = run_work(fast, work)
        slow = Board()
        slow.set_frequency(slow.opps.fmin)
        t_slow = run_work(slow, work)
        assert t_slow > t_fast
        assert slow.energy_j("job") < fast.energy_j("job")

    def test_jitter_injection(self):
        board = Board(jitter=LogNormalJitter(0.1, seed=7))
        work = Work(cycles=1.4e9)
        times = {run_work(board, work) for _ in range(5)}
        assert len(times) > 1  # jitter produces varying times

    def test_timeline_is_contiguous_record(self):
        board = Board()
        segments = record_segments(board)
        run_work(board, Work(cycles=1e8))
        board.set_frequency(board.opps.fmin)
        run_work(board, Work(cycles=1e8))
        board.idle_until(board.now + 0.01)
        assert len(segments) == 4
        for a, b in zip(segments, segments[1:]):
            assert b.start_s == pytest.approx(a.end_s)
