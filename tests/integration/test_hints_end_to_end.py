"""End-to-end: a hint-annotated app through the whole pipeline (§3.5)."""

import random

import pytest

from repro.governors.performance import PerformanceGovernor
from repro.pipeline.config import PipelineConfig
from repro.pipeline.offline import build_controller
from repro.pipeline.persist import load_controller, save_controller
from repro.platform.board import Board
from repro.platform.jitter import LogNormalJitter
from repro.platform.opp import default_xu3_a7_table
from repro.platform.switching import SwitchLatencyModel
from repro.programs.expr import Compare, Const, Var
from repro.programs.ir import Block, Hint, If, Loop, Program, Seq
from repro.runtime.executor import TaskLoopRunner
from repro.runtime.task import Task
from repro.workloads.base import InteractiveApp, JobTimeStats

OPPS = default_xu3_a7_table()


def make_hinted_app():
    """An image viewer: decode cost tracks metadata exposed by a hint.

    The decode loop's trip count comes from an opaque chain the program
    reads from its input "file header" — the hint is the honest way to
    expose it (§3.5: "extract meta-data from input files and manually
    provide these as features").
    """
    program = Program(
        "imageviewer",
        Seq(
            [
                Hint("hdr_megapixels", Var("megapixels"), cost=900),
                If(
                    "progressive",
                    Compare("==", Var("progressive"), Const(1)),
                    Block(1_500_000, 1500, name="multi_scan_setup"),
                ),
                Loop(
                    "decode_tiles",
                    Var("megapixels") * Const(16),
                    Block(110_000, 80, name="decode_tile"),
                ),
            ]
        ),
    )

    def generate_inputs(n_jobs, seed=0):
        rng = random.Random(seed)
        return [
            {
                "megapixels": rng.randint(1, 24),
                "progressive": 1 if rng.random() < 0.3 else 0,
            }
            for _ in range(n_jobs)
        ]

    return InteractiveApp(
        task=Task("imageviewer", program, budget_s=0.050),
        description="image viewer decode task",
        generate_inputs=generate_inputs,
        paper_stats=JobTimeStats(1.0, 15.0, 35.0),
    )


@pytest.fixture(scope="module")
def controller():
    return build_controller(
        make_hinted_app(),
        opps=OPPS,
        config=PipelineConfig(n_profile_jobs=80),
        switch_table=SwitchLatencyModel(OPPS).microbenchmark(15),
    )


class TestHintedPipeline:
    def test_hint_site_registered(self, controller):
        kinds = {s.site: s.kind for s in controller.instrumented.sites}
        assert kinds["hdr_megapixels"] == "hint"

    def test_deployment_meets_deadlines_and_saves(self, controller):
        app = make_hinted_app()

        def run(governor):
            board = Board(opps=OPPS, jitter=LogNormalJitter(0.02, seed=3))
            return TaskLoopRunner(
                board, app.task, governor, app.inputs(120, seed=99)
            ).run()

        predictive = run(controller.governor())
        baseline = run(PerformanceGovernor(OPPS))
        assert predictive.miss_rate == 0.0
        assert predictive.energy_j < baseline.energy_j * 0.8

    def test_hinted_controller_persists(self, controller, tmp_path):
        path = tmp_path / "imageviewer.json"
        save_controller(controller, path)
        restored = load_controller(path)
        app = make_hinted_app()
        inputs = app.inputs(3, seed=5)[0]
        from repro.programs.interpreter import Interpreter

        interp = Interpreter()
        features = interp.execute_isolated(
            restored.slice.program, inputs, {}
        ).features
        original = controller.predictor.predict(features)
        reloaded = restored.predictor.predict(features)
        assert reloaded.t_fmax_s == pytest.approx(original.t_fmax_s)
