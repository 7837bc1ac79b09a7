"""Contract tests: every governor obeys the same interface rules.

Whatever the policy, a governor must only ever select operating points
from its table, must tolerate any utilization in [0, 1], must not mutate
task state, and must behave deterministically given the same history.
"""

import pytest

from repro.governors.base import JobContext
from repro.governors.conservative import ConservativeGovernor
from repro.governors.interactive import InteractiveGovernor
from repro.governors.ondemand import OndemandGovernor
from repro.governors.oracle import OracleGovernor
from repro.governors.performance import PerformanceGovernor
from repro.governors.pid import PidGovernor
from repro.governors.powersave import PowersaveGovernor
from repro.platform.board import Board
from repro.platform.cpu import Work
from repro.platform.opp import default_xu3_a7_table

OPPS = default_xu3_a7_table()

SIMPLE_FACTORIES = {
    "performance": lambda: PerformanceGovernor(OPPS),
    "powersave": lambda: PowersaveGovernor(OPPS),
    "ondemand": lambda: OndemandGovernor(OPPS),
    "conservative": lambda: ConservativeGovernor(OPPS),
    "interactive": lambda: InteractiveGovernor(OPPS),
    "pid": lambda: PidGovernor(OPPS),
    "oracle": lambda: OracleGovernor(OPPS),
}


def make_ctx(board, index=0):
    return JobContext(
        index=index,
        inputs={},
        task_globals={"state": 1},
        budget_s=0.05,
        deadline_s=board.now + 0.05,
        board=board,
        oracle_work=Work(cycles=1e7),
    )


@pytest.mark.parametrize("name", list(SIMPLE_FACTORIES))
class TestGovernorContracts:
    def test_decide_returns_table_opp_or_none(self, name):
        board = Board(opps=OPPS)
        gov = SIMPLE_FACTORIES[name]()
        gov.start(board, 0.05)
        decision = gov.decide(make_ctx(board))
        if decision is not None:
            assert decision.opp in list(OPPS)

    def test_on_timer_handles_extreme_utilizations(self, name):
        board = Board(opps=OPPS)
        gov = SIMPLE_FACTORIES[name]()
        gov.start(board, 0.05)
        for utilization in (0.0, 0.5, 1.0):
            target = gov.on_timer(0.08, utilization)
            if target is not None:
                assert target in list(OPPS)

    def test_decide_does_not_mutate_task_state(self, name):
        board = Board(opps=OPPS)
        gov = SIMPLE_FACTORIES[name]()
        gov.start(board, 0.05)
        ctx = make_ctx(board)
        snapshot = dict(ctx.task_globals)
        gov.decide(ctx)
        assert ctx.task_globals == snapshot

    def test_name_is_stable(self, name):
        assert SIMPLE_FACTORIES[name]().name == name

    def test_same_history_same_decision(self, name):
        def sequence():
            board = Board(opps=OPPS)
            gov = SIMPLE_FACTORIES[name]()
            gov.start(board, 0.05)
            decisions = []
            for index in range(4):
                decision = gov.decide(make_ctx(board, index))
                decisions.append(
                    None if decision is None else decision.opp.index
                )
            return decisions

        assert sequence() == sequence()


class TestExecutorWithTimersAndIdling:
    @pytest.mark.parametrize("name", ["interactive", "ondemand", "conservative"])
    def test_timer_governors_survive_idling(self, name):
        """Timers + idle dips + restores must compose without error and
        keep the timeline contiguous."""
        from repro.programs.ir import Block, Program
        from repro.runtime.executor import TaskLoopRunner
        from repro.runtime.task import Task

        board = Board(opps=OPPS)
        runner = TaskLoopRunner(
            board,
            Task("t", Program("t", Block(8e6)), 0.050),
            SIMPLE_FACTORIES[name](),
            [{}] * 25,
            idle=True,
        )
        result = runner.run()
        assert result.n_jobs == 25
        segments = board.timeline.segments
        for a, b in zip(segments, segments[1:]):
            assert b.start_s == pytest.approx(a.end_s)
