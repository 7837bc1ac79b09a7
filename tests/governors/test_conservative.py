"""Tests for the conservative governor."""

import pytest

from repro.governors.conservative import ConservativeGovernor
from repro.platform.board import Board
from repro.platform.opp import default_xu3_a7_table

OPPS = default_xu3_a7_table()


def started(board=None):
    board = board if board is not None else Board()
    gov = ConservativeGovernor(OPPS)
    gov.start(board, 0.05)
    return gov, board


class TestConstruction:
    def test_name_and_timer(self):
        gov = ConservativeGovernor(OPPS)
        assert gov.name == "conservative"
        assert gov.timer_period_s == pytest.approx(0.080)


class TestPolicy:
    def test_jobs_invisible(self):
        gov, board = started()
        from tests.governors.test_governors import make_ctx

        assert gov.decide(make_ctx(board)) is None

    def test_steps_up_one_level(self):
        gov, board = started(board=Board(initial_opp=OPPS[3]))
        target = gov.on_timer(0.08, utilization=0.9)
        assert target.index == 4  # one step, not a sprint

    def test_steps_down_one_level(self):
        gov, board = started(board=Board(initial_opp=OPPS[3]))
        target = gov.on_timer(0.08, utilization=0.1)
        assert target.index == 2

    def test_holds_in_band(self):
        gov, board = started(board=Board(initial_opp=OPPS[3]))
        assert gov.on_timer(0.08, utilization=0.5) is None

    def test_thresholds_are_strict(self):
        """It steps up above 70% and down below 30%, not at them."""
        gov, board = started(board=Board(initial_opp=OPPS[3]))
        assert gov.on_timer(0.08, utilization=0.70) is None
        assert gov.on_timer(0.08, utilization=0.30) is None
        assert gov.on_timer(0.08, utilization=0.71).index == 4
        assert gov.on_timer(0.08, utilization=0.29).index == 2

    def test_saturates_at_ends(self):
        gov, board = started(board=Board(initial_opp=OPPS.fmax))
        assert gov.on_timer(0.08, utilization=0.99) is None
        gov, board = started(board=Board(initial_opp=OPPS.fmin))
        assert gov.on_timer(0.08, utilization=0.01) is None


class TestEndToEnd:
    def test_ramps_gradually_under_load(self):
        """Takes many periods to reach fmax — the governor's signature."""
        from repro.runtime.executor import TaskLoopRunner
        from repro.runtime.task import Task
        from repro.programs.ir import Block, Program

        board = Board(initial_opp=OPPS.fmin)
        gov = ConservativeGovernor(OPPS)
        runner = TaskLoopRunner(
            board,
            Task("busy", Program("busy", Block(30e6)), 0.050),
            gov,
            [{}] * 30,
        )
        result = runner.run()
        levels = [j.opp_mhz for j in result.jobs]
        # Monotone non-decreasing early ramp, one step at a time.
        early = levels[:8]
        assert all(b - a <= 100.0 + 1e-9 for a, b in zip(early, early[1:]))
        assert max(levels) > min(levels)

    def test_lab_constructs_it(self):
        from repro.analysis.harness import Lab

        lab = Lab(switch_samples=20)
        result = lab.run("sha", "conservative", n_jobs=30)
        assert result.governor == "conservative"
