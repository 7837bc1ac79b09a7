"""Tests for the power timeline and the Board facade."""

import pytest

from repro.platform.board import Board
from repro.platform.cpu import Work
from repro.platform.jitter import LogNormalJitter
from repro.platform.sensor import PowerSegment, Timeline


class TestPowerSegment:
    def test_duration_and_energy(self):
        s = PowerSegment(1.0, 3.0, 0.5, "job")
        assert s.duration_s == 2.0
        assert s.energy_j == 1.0

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            PowerSegment(2.0, 1.0, 0.5)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            PowerSegment(0.0, 1.0, -0.5)

    def test_zero_length_allowed(self):
        s = PowerSegment(1.0, 1.0, 0.5)
        assert s.energy_j == 0.0


class TestTimeline:
    def test_energy_sums_segments(self):
        tl = Timeline()
        tl.append(PowerSegment(0.0, 1.0, 1.0, "job"))
        tl.append(PowerSegment(1.0, 2.0, 0.5, "idle"))
        assert tl.total_energy_j() == pytest.approx(1.5)

    def test_energy_filtered_by_tag(self):
        tl = Timeline()
        tl.append(PowerSegment(0.0, 1.0, 1.0, "job"))
        tl.append(PowerSegment(1.0, 2.0, 0.5, "idle"))
        assert tl.total_energy_j("job") == pytest.approx(1.0)
        assert tl.total_energy_j("idle") == pytest.approx(0.5)

    def test_overlap_rejected(self):
        tl = Timeline()
        tl.append(PowerSegment(0.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="overlap"):
            tl.append(PowerSegment(0.5, 2.0, 1.0))

    def test_gap_allowed(self):
        tl = Timeline()
        tl.append(PowerSegment(0.0, 1.0, 1.0))
        tl.append(PowerSegment(2.0, 3.0, 1.0))
        assert tl.total_energy_j() == 2.0
        with pytest.raises(ValueError, match="overlap"):
            tl.append(PowerSegment(2.5, 4.0, 1.0))

    def test_empty_timeline(self):
        tl = Timeline()
        assert tl.total_energy_j() == 0.0


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
        segments = []
        board.set_segment_observer(lambda segment, _: segments.append(segment))
        run_work(board, Work(cycles=1e8))
        board.set_frequency(board.opps.fmin)
        run_work(board, Work(cycles=1e8))
        board.idle_until(board.now + 0.01)
        assert len(segments) == 4
        for a, b in zip(segments, segments[1:]):
            assert b.start_s == pytest.approx(a.end_s)
