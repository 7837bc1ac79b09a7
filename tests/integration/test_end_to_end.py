"""Integration tests: the whole stack, end to end.

These exercise the complete path the paper describes — annotate a task,
instrument it, profile it, train the models, slice the program, deploy
the controller against the simulated board, and check the system-level
outcomes (energy, misses, conservation laws).
"""

import pytest

from repro.analysis.harness import Lab
from repro.pipeline.config import PipelineConfig
from repro.pipeline.offline import build_controller
from repro.platform.board import Board
from repro.platform.jitter import LogNormalJitter
from repro.platform.opp import default_xu3_a7_table
from repro.runtime.executor import TaskLoopRunner
from repro.runtime.placement import PredictorPlacement
from repro.workloads.registry import get_app
from tests.platform.segments import record_segments

OPPS = default_xu3_a7_table()


@pytest.fixture(scope="module")
def lab():
    return Lab(switch_samples=30)


class TestFullStackLdecode:
    def test_paper_flow_end_to_end(self, lab):
        """Annotate -> instrument -> profile -> train -> slice -> deploy."""
        app = get_app("ldecode")
        controller = build_controller(
            app,
            opps=OPPS,
            config=PipelineConfig(n_profile_jobs=100),
            switch_table=lab.switch_table,
        )
        board = Board(opps=OPPS, jitter=LogNormalJitter(0.02, seed=3))
        runner = TaskLoopRunner(
            board=board,
            task=app.task,
            governor=controller.governor(),
            inputs=app.inputs(120, seed=777),
        )
        result = runner.run()
        assert result.n_jobs == 120
        assert result.miss_rate == 0.0
        # The governor really changes frequency in response to inputs.
        levels = {j.opp_mhz for j in result.jobs}
        assert len(levels) > 1
        # And never runs the whole workload flat-out.
        assert min(levels) < OPPS.fmax.freq_mhz


class TestEnergyAccounting:
    def test_energy_by_tag_sums_to_total(self, lab):
        result = lab.run("ldecode", "prediction", n_jobs=60)
        total_by_tag = sum(result.energy_by_tag.values())
        assert total_by_tag == pytest.approx(result.energy_j, rel=1e-9)

    def test_time_accounting_covers_timeline(self, lab):
        """Every simulated second is attributed to some activity."""
        app = get_app("sha")
        board = Board(opps=OPPS)
        segments = record_segments(board)
        runner = TaskLoopRunner(
            board=board,
            task=app.task,
            governor=lab.make_governor("prediction", "sha"),
            inputs=app.inputs(40, seed=5),
        )
        runner.run()
        covered = sum(segment.duration_s for segment in segments)
        assert covered == pytest.approx(board.now, rel=1e-9)

    def test_all_governors_consume_less_than_performance(self, lab):
        reference = lab.run("ldecode", "performance", n_jobs=60)
        for governor in ("interactive", "pid", "prediction", "oracle",
                         "powersave", "ondemand"):
            result = lab.run("ldecode", governor, n_jobs=60)
            assert result.energy_j <= reference.energy_j * 1.02, governor


class TestPlacementsEndToEnd:
    @pytest.mark.parametrize("placement", list(PredictorPlacement))
    def test_all_placements_meet_deadlines(self, lab, placement):
        result = lab.run(
            "ldecode", "prediction", n_jobs=60, placement=placement
        )
        assert result.miss_rate == 0.0

    def test_pipelined_has_no_budget_impact(self, lab):
        result = lab.run(
            "ldecode",
            "prediction",
            n_jobs=60,
            placement=PredictorPlacement.PIPELINED,
        )
        assert result.mean_predictor_time_s == 0.0
        # But the overlapped slice energy is still accounted, under its
        # own tag (it corresponds to no timeline segment).
        assert result.energy_by_tag["predictor_overlap"] > 0.0

    def test_parallel_overlaps_execution(self, lab):
        sequential = lab.run("ldecode", "prediction", n_jobs=60)
        parallel = lab.run(
            "ldecode",
            "prediction",
            n_jobs=60,
            placement=PredictorPlacement.PARALLEL,
        )
        # Parallel placement cannot be slower end-to-end than sequential.
        seq_end = sequential.jobs[-1].end_s
        par_end = parallel.jobs[-1].end_s
        assert par_end <= seq_end * 1.02


class TestIdlingEndToEnd:
    def test_idle_energy_ordering_holds_per_app(self, lab):
        for app in ("sha", "xpilot"):
            plain = lab.run(app, "performance", n_jobs=50)
            idled = lab.run(app, "performance", n_jobs=50, idle=True)
            assert idled.energy_j < plain.energy_j

    def test_idling_never_adds_misses(self, lab):
        for governor in ("performance", "prediction"):
            plain = lab.run("ldecode", governor, n_jobs=60)
            idled = lab.run("ldecode", governor, n_jobs=60, idle=True)
            assert idled.miss_rate <= plain.miss_rate + 0.02


class TestCrossAppHeadline:
    def test_prediction_dominates_on_every_app(self, lab):
        """Prediction: meaningful savings with zero misses, all 8 apps."""
        for app in ("2048", "curseofwar", "ldecode", "rijndael",
                    "sha", "uzbl", "xpilot"):
            result = lab.run(app, "prediction", n_jobs=80)
            energy = lab.normalized_energy(result, app)
            assert energy < 0.9, app
            assert result.miss_rate == 0.0, app

    def test_pid_misses_where_prediction_does_not(self, lab):
        """The reactive-vs-proactive gap on a high-variance app."""
        pid = lab.run("sha", "pid", n_jobs=80)
        prediction = lab.run("sha", "prediction", n_jobs=80)
        assert pid.miss_rate > 0.05
        assert prediction.miss_rate == 0.0
