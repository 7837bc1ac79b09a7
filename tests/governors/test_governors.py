"""Unit tests for each governor's policy logic."""

import pytest

from repro.governors import oracle, pid
from repro.governors.base import JobContext
from repro.governors.interactive import InteractiveGovernor
from repro.governors.ondemand import OndemandGovernor
from repro.governors.oracle import OracleGovernor
from repro.governors.performance import PerformanceGovernor
from repro.governors.pid import PidGovernor
from repro.governors.powersave import PowersaveGovernor
from repro.governors.predictive import PredictiveGovernor
from repro.platform.board import Board
from repro.platform.cpu import Work
from repro.platform.opp import default_xu3_a7_table
from repro.runtime.records import JobRecord

OPPS = default_xu3_a7_table()


def make_ctx(board, budget_s=0.050, inputs=None, oracle_work=None, index=0):
    return JobContext(
        index=index,
        inputs=inputs or {},
        task_globals={},
        budget_s=budget_s,
        deadline_s=board.now + budget_s,
        board=board,
        oracle_work=oracle_work,
    )


def make_record(exec_time_s, opp_mhz, index=0):
    return JobRecord(
        index=index,
        arrival_s=0.0,
        start_s=0.0,
        end_s=exec_time_s,
        deadline_s=0.050,
        opp_mhz=opp_mhz,
        exec_time_s=exec_time_s,
    )


class TestPerformanceGovernor:
    def test_starts_at_fmax(self):
        board = Board(initial_opp=OPPS.fmin)
        gov = PerformanceGovernor(OPPS)
        gov.start(board, 0.05)
        assert board.current_opp == OPPS.fmax

    def test_no_decision_when_already_fmax(self):
        board = Board()
        gov = PerformanceGovernor(OPPS)
        gov.start(board, 0.05)
        assert gov.decide(make_ctx(board)) is None

    def test_corrects_drift_back_to_fmax(self):
        board = Board(initial_opp=OPPS.fmin)
        gov = PerformanceGovernor(OPPS)
        decision = gov.decide(make_ctx(board))
        assert decision is not None
        assert decision.opp == OPPS.fmax


class TestPowersaveGovernor:
    def test_pins_fmin(self):
        board = Board()
        gov = PowersaveGovernor(OPPS)
        gov.start(board, 0.05)
        assert board.current_opp == OPPS.fmin
        assert gov.decide(make_ctx(board)) is None

    def test_name(self):
        assert PowersaveGovernor(OPPS).name == "powersave"


class TestInteractiveGovernor:
    def test_has_80ms_timer(self):
        assert InteractiveGovernor(OPPS).timer_period_s == pytest.approx(0.080)

    def test_jobs_invisible(self):
        board = Board()
        gov = InteractiveGovernor(OPPS)
        gov.start(board, 0.05)
        assert gov.decide(make_ctx(board)) is None

    def test_job_release_boosts_to_hispeed(self):
        """Below hispeed a release raises the clock to the lowest level
        at or above 55% of fmax (770 MHz -> 800 MHz)."""
        board = Board(initial_opp=OPPS.fmin)
        gov = InteractiveGovernor(OPPS)
        gov.start(board, 0.05)
        assert gov.decide(make_ctx(board)).opp.freq_mhz == 800

    def test_high_load_goes_to_max(self):
        board = Board(initial_opp=OPPS.fmin)
        gov = InteractiveGovernor(OPPS)
        gov.start(board, 0.05)
        assert gov.on_timer(0.08, utilization=0.90) == OPPS.fmax

    def test_load_at_threshold_does_not_jump(self):
        board = Board(initial_opp=OPPS.fmin)
        gov = InteractiveGovernor(OPPS)
        gov.start(board, 0.05)
        target = gov.on_timer(0.08, utilization=0.85)
        assert target != OPPS.fmax

    def test_scales_down_proportionally(self):
        board = Board()  # at fmax (1400)
        gov = InteractiveGovernor(OPPS)
        gov.start(board, 0.05)
        # util 0.30 at 1400 MHz with target load 0.45 -> wants ~933 MHz
        # -> 1000 MHz level.
        target = gov.on_timer(0.08, utilization=0.30)
        assert target.freq_mhz == 1000

    def test_zero_utilization_floors_at_fmin(self):
        board = Board()
        gov = InteractiveGovernor(OPPS)
        gov.start(board, 0.05)
        assert gov.on_timer(0.08, utilization=0.0) == OPPS.fmin


class TestOndemandGovernor:
    def test_sprints_on_high_load(self):
        board = Board(initial_opp=OPPS.fmin)
        gov = OndemandGovernor(OPPS)
        gov.start(board, 0.05)
        assert gov.on_timer(0.08, 0.95) == OPPS.fmax

    def test_steps_down_one_level_on_low_load(self):
        board = Board()  # fmax, index 12
        gov = OndemandGovernor(OPPS)
        gov.start(board, 0.05)
        target = gov.on_timer(0.08, 0.10)
        assert target.index == OPPS.fmax.index - 1

    def test_holds_in_mid_band(self):
        board = Board()
        gov = OndemandGovernor(OPPS)
        gov.start(board, 0.05)
        assert gov.on_timer(0.08, 0.60) is None

    def test_thresholds_are_strict(self):
        """It sprints above 80% and steps down below 40%, not at them."""
        board = Board(initial_opp=OPPS[6])
        gov = OndemandGovernor(OPPS)
        gov.start(board, 0.05)
        assert gov.on_timer(0.08, 0.80) is None
        assert gov.on_timer(0.08, 0.40) is None
        assert gov.on_timer(0.08, 0.81) == OPPS.fmax
        assert gov.on_timer(0.08, 0.39) == OPPS[5]

    def test_cannot_step_below_fmin(self):
        board = Board(initial_opp=OPPS.fmin)
        gov = OndemandGovernor(OPPS)
        gov.start(board, 0.05)
        assert gov.on_timer(0.08, 0.10) is None


class TestPidGovernor:
    def test_first_job_runs_at_fmax(self):
        board = Board()
        gov = PidGovernor(OPPS)
        gov.start(board, 0.05)
        decision = gov.decide(make_ctx(board))
        assert decision.opp == OPPS.fmax

    def test_learns_from_history(self):
        board = Board()
        gov = PidGovernor(OPPS)
        gov.start(board, 0.05)
        ctx = make_ctx(board)
        # Steady 10ms jobs at 1400 MHz -> 14M cycles -> ~280MHz for a 50ms
        # budget (with margin -> 400 MHz level).
        for i in range(10):
            gov.on_job_end(make_record(0.010, 1400.0, index=i), ctx)
        decision = gov.decide(make_ctx(board, index=10))
        assert decision.opp.freq_mhz < OPPS.fmax.freq_mhz
        assert decision.opp.freq_hz >= 14e6 / 0.050  # still meets budget

    def test_estimate_tracks_step_change_with_lag(self):
        """The defining PID weakness: it reacts only after observing."""
        board = Board()
        gov = PidGovernor(OPPS)
        gov.start(board, 0.05)
        ctx = make_ctx(board)
        for i in range(20):
            gov.on_job_end(make_record(0.005, 1400.0, index=i), ctx)
        small_estimate = gov.estimate_cycles
        # A sudden heavy job: the estimate before seeing it is still small.
        assert small_estimate == pytest.approx(0.005 * 1.4e9, rel=0.05)
        gov.on_job_end(make_record(0.030, 1400.0, index=20), ctx)
        assert gov.estimate_cycles > small_estimate

    def test_infeasible_estimate_saturates_fmax(self):
        board = Board()
        gov = PidGovernor(OPPS)
        gov.start(board, 0.05)
        ctx = make_ctx(board, budget_s=0.001)
        gov.on_job_end(make_record(0.040, 1400.0), ctx)
        decision = gov.decide(make_ctx(board, budget_s=0.001))
        assert decision.opp == OPPS.fmax

    def test_margin_inflates_the_cycle_estimate(self):
        """One 10 ms job at 1400 MHz is 14M cycles; the 25% margin asks
        for 17.5M cycles in 50 ms (350 MHz), quantized up to 400 MHz."""
        board = Board()
        gov = PidGovernor(OPPS)
        gov.start(board, 0.05)
        gov.on_job_end(make_record(0.010, 1400.0), make_ctx(board))
        decision = gov.decide(make_ctx(board, index=1))
        cycles = gov.estimate_cycles * (1.0 + pid.MARGIN)
        assert cycles == pytest.approx(17.5e6)
        assert decision.opp.freq_mhz == 400
        assert decision.predicted_time_s == cycles / decision.opp.freq_hz

    def test_start_resets_state(self):
        board = Board()
        gov = PidGovernor(OPPS)
        ctx = make_ctx(board)
        gov.on_job_end(make_record(0.010, 1400.0), ctx)
        gov.start(board, 0.05)
        assert gov.estimate_cycles is None


class TestOracleGovernor:
    def test_requires_oracle_work(self):
        board = Board()
        gov = OracleGovernor(OPPS)
        with pytest.raises(ValueError, match="oracle_work"):
            gov.decide(make_ctx(board))

    def test_picks_lowest_feasible_level(self):
        board = Board()
        gov = OracleGovernor(OPPS)
        work = Work(cycles=9e6)  # 45 ms at 200 MHz, 47.25 ms with margin
        decision = gov.decide(make_ctx(board, oracle_work=work))
        assert decision.opp == OPPS.fmin

    def test_predicted_time_is_ideal_time_with_margin(self):
        board = Board()
        work = Work(cycles=9e6)
        decision = OracleGovernor(OPPS).decide(
            make_ctx(board, oracle_work=work)
        )
        ideal = board.cpu.ideal_time(work, decision.opp)
        assert oracle.MARGIN == 0.05
        assert decision.predicted_time_s == ideal * 1.05

    def test_margin_pushes_level_up(self):
        """Exactly 50 ms at 200 MHz fits the budget bare but not with the
        5% margin, so the oracle runs one level up."""
        board = Board()
        work = Work(cycles=10e6)
        decision = OracleGovernor(OPPS).decide(
            make_ctx(board, oracle_work=work)
        )
        assert decision.opp == OPPS[1]

    def test_infeasible_job_saturates_fmax(self):
        board = Board()
        gov = OracleGovernor(OPPS)
        work = Work(cycles=1e9)  # 714 ms even at fmax
        decision = gov.decide(make_ctx(board, oracle_work=work))
        assert decision.opp == OPPS.fmax
        assert decision.predicted_time_s == (
            board.cpu.ideal_time(work, OPPS.fmax) * 1.05
        )


class TestPredictiveGovernor:
    def test_name(self, trained_stack):
        _, slice_, predictor, dvfs, table = trained_stack
        gov = PredictiveGovernor(slice_, predictor, dvfs, table)
        assert gov.name == "prediction"

    def test_decision_scales_with_input_size(self, trained_stack):
        _, slice_, predictor, dvfs, table = trained_stack
        gov = PredictiveGovernor(slice_, predictor, dvfs, table)
        board = Board()
        small = gov.decide(
            make_ctx(
                board,
                budget_s=0.050,
                inputs={"width": 5, "height": 5, "kind": 0},
            )
        )
        board2 = Board()
        large = gov.decide(
            make_ctx(
                board2,
                budget_s=0.050,
                inputs={"width": 20, "height": 15, "kind": 1},
            )
        )
        assert large.opp.freq_hz > small.opp.freq_hz

    def test_slice_time_charged_on_board(self, trained_stack):
        _, slice_, predictor, dvfs, table = trained_stack
        gov = PredictiveGovernor(slice_, predictor, dvfs, table)
        board = Board()
        gov.decide(
            make_ctx(board, inputs={"width": 10, "height": 10, "kind": 0})
        )
        assert board.energy_j("predictor") > 0
        assert board.now > 0

    def test_charge_overheads_false_is_free(self, trained_stack):
        _, slice_, predictor, dvfs, table = trained_stack
        gov = PredictiveGovernor(slice_, predictor, dvfs, table)
        board = Board()
        ctx = make_ctx(board, inputs={"width": 10, "height": 10, "kind": 0})
        ctx.charge_overheads = False
        gov.decide(ctx)
        assert board.now == 0.0
        assert board.energy_j() == 0.0

    def test_slice_does_not_mutate_globals(self, trained_stack):
        _, slice_, predictor, dvfs, table = trained_stack
        gov = PredictiveGovernor(slice_, predictor, dvfs, table)
        board = Board()
        ctx = make_ctx(board, inputs={"width": 10, "height": 10, "kind": 0})
        before = dict(ctx.task_globals)
        gov.decide(ctx)
        assert ctx.task_globals == before

    def test_tight_budget_forces_fmax(self, trained_stack):
        _, slice_, predictor, dvfs, table = trained_stack
        gov = PredictiveGovernor(slice_, predictor, dvfs, table)
        board = Board()
        decision = gov.decide(
            make_ctx(
                board,
                budget_s=0.001,
                inputs={"width": 20, "height": 15, "kind": 1},
            )
        )
        assert decision.opp == OPPS.fmax

    def test_switch_estimate_conservative(self, trained_stack):
        _, slice_, predictor, dvfs, table = trained_stack
        gov = PredictiveGovernor(slice_, predictor, dvfs, table)
        board = Board()
        ctx = make_ctx(board)
        estimate = gov.switch_estimate_s(ctx)
        for end in OPPS:
            assert estimate >= table.time_s(board.current_opp, end)
