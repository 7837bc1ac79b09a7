"""Executor reuse: reset(), stepping, and explicit arrival schedules.

The repository benchmark replays one configured TaskLoopRunner round
after round (fleet sessions build a fresh runner each); these tests pin
the contract that makes that safe: a reset runner with a fresh board
and governor is bit-identical to a fresh runner, and state (switch
counts, overlap energy, records) never bleeds between runs.
"""

import pytest

from repro.governors.interactive import InteractiveGovernor
from repro.governors.performance import PerformanceGovernor
from repro.platform.board import Board
from repro.platform.opp import default_xu3_a7_table
from repro.runtime.executor import TaskLoopRunner
from repro.workloads.registry import get_app

OPPS = default_xu3_a7_table()


def _runner(app, n_jobs=6, arrivals=None, governor=None):
    return TaskLoopRunner(
        board=Board(opps=OPPS),
        task=app.task,
        governor=governor if governor is not None else InteractiveGovernor(OPPS),
        inputs=app.inputs(n_jobs, seed=3),
        arrivals=arrivals,
    )


def _result_fingerprint(result):
    return (
        result.energy_j,
        result.switch_count,
        [(j.index, j.start_s, j.end_s, j.opp_mhz, j.exec_time_s)
         for j in result.jobs],
    )


class TestReset:
    def test_second_run_without_reset_leaks_state(self):
        """Re-running without reset() double-counts: the regression this
        API exists to prevent."""
        app = get_app("sha")
        runner = _runner(app)
        first = runner.run()
        second = runner.run()  # exhausted stream: no new jobs run
        assert second.n_jobs == first.n_jobs
        # The result is at least idempotent when exhausted...
        assert second.switch_count == first.switch_count
        # ...but the runner cannot make progress again without reset.
        assert runner.step() is None

    def test_reset_with_fresh_board_matches_fresh_runner(self):
        app = get_app("sha")
        runner = _runner(app)
        runner.run()
        runner.reset(
            board=Board(opps=OPPS), governor=InteractiveGovernor(OPPS)
        )
        rerun = runner.run()
        fresh = _runner(app).run()
        assert _result_fingerprint(rerun) == _result_fingerprint(fresh)

    def test_reset_does_not_leak_switch_count(self):
        app = get_app("rijndael")
        runner = _runner(app, governor=InteractiveGovernor(OPPS))
        first = runner.run()
        assert first.switch_count > 0
        runner.reset(
            board=Board(opps=OPPS), governor=InteractiveGovernor(OPPS)
        )
        second = runner.run()
        assert second.switch_count == first.switch_count


class TestStepping:
    def test_step_sequence_matches_run(self):
        app = get_app("sha")
        stepped = _runner(app)
        records = []
        while True:
            record = stepped.step()
            if record is None:
                break
            records.append(record)
        whole = _runner(app).run()
        assert _result_fingerprint(stepped.result()) == _result_fingerprint(
            whole
        )
        assert [r.index for r in records] == [j.index for j in whole.jobs]

    def test_next_arrival_tracks_pending_job(self):
        app = get_app("sha")
        runner = _runner(app)
        budget = app.task.budget_s
        assert runner.next_arrival_s() == pytest.approx(0.0)
        runner.step()
        assert runner.next_arrival_s() == pytest.approx(budget)
        assert runner.jobs_remaining == 5
        while runner.step() is not None:
            pass
        assert runner.next_arrival_s() is None
        assert runner.jobs_remaining == 0


class TestArrivalSchedules:
    def test_periodic_schedule_is_default_behaviour(self):
        app = get_app("sha")
        budget = app.task.budget_s
        explicit = _runner(
            app, arrivals=[i * budget for i in range(6)]
        ).run()
        default = _runner(app).run()
        assert _result_fingerprint(explicit) == _result_fingerprint(default)

    def test_deadlines_follow_explicit_arrivals(self):
        app = get_app("sha")
        budget = app.task.budget_s
        arrivals = [0.0, 0.25, 0.25, 0.9, 1.3, 1.31]
        result = _runner(app, arrivals=arrivals).run()
        for job, arrival in zip(result.jobs, arrivals):
            assert job.arrival_s == pytest.approx(arrival)
            assert job.deadline_s == pytest.approx(arrival + budget)
            assert job.start_s >= arrival

    def test_burst_queues_jobs_back_to_back(self):
        """Simultaneous releases execute in order with zero idle gap."""
        app = get_app("sha")
        arrivals = [0.0, 0.0, 0.0, 0.0]
        result = _runner(
            app,
            n_jobs=4,
            arrivals=arrivals,
            governor=PerformanceGovernor(OPPS),
        ).run()
        for previous, current in zip(result.jobs, result.jobs[1:]):
            assert current.start_s == pytest.approx(previous.end_s)

    def test_schedule_validation(self):
        app = get_app("sha")
        with pytest.raises(ValueError, match="entries"):
            _runner(app, arrivals=[0.0])
        with pytest.raises(ValueError, match="non-decreasing"):
            _runner(app, arrivals=[0.0, 0.2, 0.1, 0.3, 0.4, 0.5])
        with pytest.raises(ValueError, match="non-negative"):
            _runner(app, arrivals=[-0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
