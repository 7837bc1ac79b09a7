"""Scenario: two annotated tasks sharing one core (paper §4.1).

A media app runs a video-decode task (ldecode-class, 50 ms budget) next
to a UI task (xpilot-class game loop, 50 ms budget, phase-shifted by
half a period).  Each task gets its own trained prediction-based
controller; the runner schedules their jobs FIFO by release time so they
never overlap, as §4.1 requires.

Run:  python examples/multitask.py
"""

from repro.analysis.render import format_table
from repro.pipeline.config import PipelineConfig
from repro.pipeline.offline import build_controller
from repro.platform.board import Board
from repro.platform.jitter import LogNormalJitter
from repro.platform.opp import default_xu3_a7_table
from repro.platform.switching import SwitchLatencyModel
from repro.runtime.multitask import MultiTaskRunner, TaskStream
from repro.workloads.registry import get_app

N_JOBS = 120


def main():
    opps = default_xu3_a7_table()
    switch_table = SwitchLatencyModel(opps).microbenchmark(50)
    config = PipelineConfig()

    video = get_app("ldecode")
    ui = get_app("xpilot")
    print("Training one controller per task (offline flow, twice)...")
    video_controller = build_controller(
        video, opps, config, switch_table=switch_table
    )
    ui_controller = build_controller(ui, opps, config, switch_table=switch_table)

    board = Board(opps=opps, jitter=LogNormalJitter(0.02, seed=21))
    results = MultiTaskRunner(
        board,
        [
            TaskStream(
                video.task, video_controller.governor(), video.inputs(N_JOBS, 7)
            ),
            TaskStream(
                ui.task,
                ui_controller.governor(),
                ui.inputs(N_JOBS, 7),
                offset_s=0.025,  # half a period out of phase
            ),
        ],
    ).run()

    rows = []
    for name, result in results.items():
        rows.append(
            (
                name,
                result.n_jobs,
                f"{result.miss_rate * 100:.1f}%",
                f"{result.mean_predictor_time_s * 1e3:.2f}",
            )
        )
    print(
        format_table(
            ["task", "jobs", "misses", "predictor[ms]"],
            rows,
            title="Two prediction-controlled tasks, one core:",
        )
    )
    print(f"\nshared-core energy: {results['ldecode'].energy_j:.2f} J")
    print(
        "Each job still gets a per-release frequency decision from its own "
        "controller;\nqueueing between tasks is visible in the records "
        "(the §7 contention problem\nis observable here, not hidden)."
    )


if __name__ == "__main__":
    main()
