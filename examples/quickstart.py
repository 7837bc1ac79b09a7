"""Quickstart: a prediction-based DVFS controller in ~60 lines.

Builds a tiny interactive task whose work depends on its input, runs the
paper's full offline flow (instrument -> profile -> train -> slice), and
deploys the resulting controller against the simulated board, comparing
it with running flat-out at maximum frequency.

Run:  python examples/quickstart.py
"""

import random

from repro.governors.performance import PerformanceGovernor
from repro.pipeline.config import PipelineConfig
from repro.pipeline.offline import build_controller
from repro.platform.board import Board
from repro.platform.jitter import LogNormalJitter
from repro.platform.opp import default_xu3_a7_table
from repro.programs.expr import Compare, Const, Var
from repro.programs.ir import Block, If, Loop, Program, Seq
from repro.runtime.executor import TaskLoopRunner
from repro.runtime.task import Task
from repro.workloads.base import InteractiveApp, JobTimeStats


def make_photo_filter_app() -> InteractiveApp:
    """An interactive photo filter: work scales with the edited region."""
    program = Program(
        name="photo_filter",
        body=Seq(
            [
                # Parse the gesture and set up the filter kernel.
                Block(instructions=400_000, mem_refs=300, name="setup"),
                # Heavier two-pass path when the user picked "enhance".
                If(
                    "enhance",
                    Compare("==", Var("mode"), Const(1)),
                    Block(3_000_000, 2_000, name="enhance_pass"),
                ),
                # Per-tile filtering over the touched region.
                Loop(
                    "tiles",
                    Var("n_tiles"),
                    Block(90_000, 60, name="filter_tile"),
                ),
            ]
        ),
    )
    def generate_inputs(n_jobs: int, seed: int = 0):
        rng = random.Random(seed)
        return [
            {"mode": 1 if rng.random() < 0.2 else 0,
             "n_tiles": rng.randint(10, 350)}
            for _ in range(n_jobs)
        ]

    return InteractiveApp(
        task=Task("photo_filter", program, budget_s=0.050),  # 50 ms budget
        description="interactive photo filter",
        generate_inputs=generate_inputs,
        paper_stats=JobTimeStats(0.3, 12.0, 33.0),  # rough expectations
    )


def run(app, governor, n_jobs=200):
    board = Board(jitter=LogNormalJitter(sigma=0.02, seed=7))
    runner = TaskLoopRunner(
        board=board,
        task=app.task,
        governor=governor,
        inputs=app.inputs(n_jobs, seed=99),
    )
    return runner.run()


def main():
    app = make_photo_filter_app()

    # The paper's offline flow, one call: instrument the task, profile it,
    # train the asymmetric-Lasso time models, slice out the predictor.
    controller = build_controller(app, config=PipelineConfig())
    print(f"feature sites instrumented : {len(controller.instrumented.sites)}")
    print(f"features the model kept    : {sorted(controller.predictor.needed_sites)}")

    opps = default_xu3_a7_table()
    baseline = run(app, PerformanceGovernor(opps))
    predictive = run(app, controller.governor())

    saving = 1.0 - predictive.energy_j / baseline.energy_j
    print(f"\nperformance governor : {baseline.energy_j:.3f} J, "
          f"{baseline.miss_rate:.1%} deadline misses")
    print(f"predictive controller: {predictive.energy_j:.3f} J, "
          f"{predictive.miss_rate:.1%} deadline misses")
    print(f"energy saving        : {saving:.1%} with the same 50 ms deadlines")


if __name__ == "__main__":
    main()
