"""Tests for the batched prediction governor (paper §7)."""

import math

import pytest

from repro.governors.batch import BatchPredictiveGovernor
from repro.governors.base import JobContext
from repro.governors.predictive import PredictiveGovernor
from repro.platform.board import Board
from repro.platform.opp import default_xu3_a7_table
from repro.programs.interpreter import Interpreter
from repro.runtime.executor import TaskLoopRunner
from repro.runtime.placement import PredictorPlacement
from repro.runtime.task import Task
from tests.governors.conftest import toy_inputs

OPPS = default_xu3_a7_table()


def make_governor(trained_stack, batch_size=4):
    _, slice_, predictor, dvfs, table = trained_stack
    return BatchPredictiveGovernor(
        slice_, predictor, dvfs, table, batch_size=batch_size
    )


def ctx_for(board, index, budget_s=0.050):
    return JobContext(
        index=index,
        inputs={"width": 10, "height": 10, "kind": 0},
        task_globals={},
        budget_s=budget_s,
        deadline_s=board.now + budget_s,
        board=board,
    )


class TestConstruction:
    def test_rejects_bad_batch_size(self, trained_stack):
        with pytest.raises(ValueError):
            make_governor(trained_stack, batch_size=0)

    def test_name_includes_batch_size(self, trained_stack):
        assert make_governor(trained_stack, batch_size=8).name == (
            "prediction-batch8"
        )


class TestBatching:
    def test_decides_only_on_batch_heads(self, trained_stack):
        gov = make_governor(trained_stack, batch_size=4)
        board = Board()
        decisions = [
            gov.decide(ctx_for(board, index)) is not None
            for index in range(8)
        ]
        assert decisions == [True, False, False, False] * 2

    def test_batch_size_one_decides_every_job(self, trained_stack):
        gov = make_governor(trained_stack, batch_size=1)
        board = Board()
        assert all(
            gov.decide(ctx_for(board, index)) is not None for index in range(4)
        )

    def test_mid_batch_jobs_cost_nothing(self, trained_stack):
        gov = make_governor(trained_stack, batch_size=4)
        board = Board()
        gov.decide(ctx_for(board, 0))
        t_after_head = board.now
        gov.decide(ctx_for(board, 1))
        assert board.now == t_after_head

    def test_batch_margin_raises_level(self, trained_stack):
        _, slice_, predictor, dvfs, table = trained_stack
        per_job = PredictiveGovernor(slice_, predictor, dvfs, table)
        batched = make_governor(trained_stack, batch_size=4)
        d_batched = batched.decide(ctx_for(Board(), 0))
        d_per_job = per_job.decide(ctx_for(Board(), 0))
        assert d_batched.opp.freq_hz >= d_per_job.opp.freq_hz


class CountingInterpreter(Interpreter):
    """Counts the isolated executions (the governor runs only slices)."""

    def __init__(self):
        super().__init__()
        self.isolated_runs = 0

    def execute_isolated(self, *args, **kwargs):
        self.isolated_runs += 1
        return super().execute_isolated(*args, **kwargs)


class TestPlacements:
    @pytest.mark.parametrize("charge", (True, False))
    @pytest.mark.parametrize("placement", PredictorPlacement)
    def test_slice_runs_once_per_batch(self, trained_stack, placement, charge):
        program, slice_, predictor, dvfs, table = trained_stack
        interpreter = CountingInterpreter()
        gov = BatchPredictiveGovernor(
            slice_, predictor, dvfs, table, interpreter, batch_size=4
        )
        n_jobs = 10
        result = TaskLoopRunner(
            Board(),
            Task("toy", program, 0.050),
            gov,
            toy_inputs(n_jobs, seed=3),
            placement=placement,
            charge_predictor=charge,
        ).run()
        assert interpreter.isolated_runs == math.ceil(n_jobs / 4)
        predicted = [
            not math.isnan(job.predicted_time_s) for job in result.jobs
        ]
        assert predicted == [index % 4 == 0 for index in range(n_jobs)]

    @pytest.mark.parametrize("placement", PredictorPlacement)
    def test_batch_margin_applies(self, trained_stack, placement):
        """A batch head's predicted time is the per-job governor's
        x 1.15, under every placement."""
        program, slice_, predictor, dvfs, table = trained_stack

        def head_prediction(cls):
            gov = cls(slice_, predictor, dvfs, table)
            result = TaskLoopRunner(
                Board(),
                Task("toy", program, 10.0),
                gov,
                toy_inputs(1, seed=3),
                placement=placement,
                charge_predictor=False,
                charge_switch=False,
            ).run()
            return result.jobs[0].predicted_time_s

        # A loose budget keeps both at fmin, so only the margin differs.
        assert head_prediction(BatchPredictiveGovernor) == pytest.approx(
            1.15 * head_prediction(PredictiveGovernor), rel=1e-12
        )
