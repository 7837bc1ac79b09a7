"""Detailed accounting tests for predictor placement modes (§4.3)."""

import pytest

from repro.governors.performance import PerformanceGovernor
from repro.platform.board import Board
from repro.platform.opp import default_xu3_a7_table
from repro.runtime.executor import TaskLoopRunner
from repro.runtime.placement import PredictorPlacement
from repro.workloads.registry import get_app

OPPS = default_xu3_a7_table()


@pytest.fixture(scope="module")
def stack():
    from repro.pipeline.config import PipelineConfig
    from repro.pipeline.offline import build_controller
    from repro.platform.switching import SwitchLatencyModel

    app = get_app("ldecode")
    controller = build_controller(
        app,
        opps=OPPS,
        config=PipelineConfig(n_profile_jobs=80),
        switch_table=SwitchLatencyModel(OPPS).microbenchmark(20),
    )
    return app, controller


def run_with(app, governor, placement, n_jobs=40, **kwargs):
    board = Board(opps=OPPS)
    runner = TaskLoopRunner(
        board=board,
        task=app.task,
        governor=governor,
        inputs=app.inputs(n_jobs, seed=42),
        placement=placement,
        **kwargs,
    )
    return runner.run()


class TestSequential:
    def test_predictor_time_reduces_slack(self, stack):
        app, controller = stack
        result = run_with(
            app, controller.governor(), PredictorPlacement.SEQUENTIAL
        )
        assert all(j.predictor_time_s > 0 for j in result.jobs)
        # Start-to-end includes the predictor: end - start >= exec + pred.
        for j in result.jobs:
            assert (j.end_s - j.start_s) >= (
                j.exec_time_s + j.predictor_time_s - 1e-9
            )


class TestPipelined:
    def test_no_time_charge_but_energy_accounted(self, stack):
        app, controller = stack
        result = run_with(
            app, controller.governor(), PredictorPlacement.PIPELINED
        )
        assert all(j.predictor_time_s == 0.0 for j in result.jobs)
        assert result.energy_by_tag["predictor_overlap"] > 0.0

    def test_overlap_energy_included_in_total(self, stack):
        app, controller = stack
        result = run_with(
            app, controller.governor(), PredictorPlacement.PIPELINED
        )
        assert result.energy_j == pytest.approx(
            sum(result.energy_by_tag.values()), rel=1e-9
        )

    def test_uncharged_predictor_is_fully_free(self, stack):
        app, controller = stack
        result = run_with(
            app,
            controller.governor(),
            PredictorPlacement.PIPELINED,
            charge_predictor=False,
        )
        assert result.energy_by_tag["predictor"] == 0.0


class TestParallel:
    def test_job_progresses_during_prediction(self, stack):
        """Parallel placement: the predictor window also advances the job,
        so the job's own busy time is no less than sequential's."""
        app, controller = stack
        parallel = run_with(
            app, controller.governor(), PredictorPlacement.PARALLEL
        )
        # predictor_time recorded (budget impact)...
        assert all(j.predictor_time_s > 0 for j in parallel.jobs)
        # ...and exec_time includes the overlapped slice window.
        for j in parallel.jobs:
            assert j.exec_time_s > 0

    def test_parallel_never_slower_per_job(self, stack):
        app, controller = stack
        sequential = run_with(
            app, controller.governor(), PredictorPlacement.SEQUENTIAL
        )
        parallel = run_with(
            app, controller.governor(), PredictorPlacement.PARALLEL
        )
        seq_latency = sum(j.end_s - j.arrival_s for j in sequential.jobs)
        par_latency = sum(j.end_s - j.arrival_s for j in parallel.jobs)
        assert par_latency <= seq_latency * 1.05


class TestNonPredictiveGovernorsIgnorePlacement:
    @pytest.mark.parametrize("placement", list(PredictorPlacement))
    def test_performance_identical_across_placements(self, stack, placement):
        app, _ = stack
        result = run_with(app, PerformanceGovernor(OPPS), placement, n_jobs=10)
        baseline = run_with(
            app,
            PerformanceGovernor(OPPS),
            PredictorPlacement.SEQUENTIAL,
            n_jobs=10,
        )
        assert result.energy_j == pytest.approx(baseline.energy_j)
