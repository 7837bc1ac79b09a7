"""Scenario: prediction-guided big.LITTLE control (paper §3.5 extension).

The paper's last pipeline stage — pick the cheapest operating point whose
predicted time fits the budget — generalizes beyond DVFS "to support
other performance-energy trade-off mechanisms, such as heterogeneous
cores".  This example demonstrates it on an Exynos-5422-like platform:
a Cortex-A7 cluster (efficient, tops out at 1400 MHz) next to a
Cortex-A15 cluster (~1.9x the throughput per MHz at several times the
power), merged into one Pareto ladder of operating settings.

With a 20 ms frame budget, ldecode's heaviest frames are IMPOSSIBLE on
the A7 alone (33 ms at its top clock) — the controller must hop clusters
frame by frame: A7 for skip-heavy frames, A15 for I-frames and busy
scenes.

Run:  python examples/biglittle.py
"""

from collections import Counter

from repro.analysis.render import format_table
from repro.governors.performance import PerformanceGovernor
from repro.pipeline.config import PipelineConfig
from repro.pipeline.offline import build_controller
from repro.platform.biglittle import build_biglittle_platform
from repro.platform.board import Board
from repro.platform.jitter import LogNormalJitter
from repro.runtime.executor import TaskLoopRunner
from repro.workloads.registry import get_app

BUDGET_S = 0.020  # 50 FPS: infeasible for the A7 cluster alone
N_FRAMES = 200


def run(table, power, switcher, governor, app):
    board = Board(
        opps=table,
        power=power,
        switcher=switcher,
        jitter=LogNormalJitter(0.02, seed=11),
    )
    runner = TaskLoopRunner(
        board=board,
        task=app.task.with_budget(BUDGET_S),
        governor=governor,
        inputs=app.inputs(N_FRAMES, seed=42),
    )
    return runner.run(), board


def main():
    table, power, switcher = build_biglittle_platform()
    app = get_app("ldecode")
    print(
        f"Operating-setting ladder: {len(table)} Pareto-optimal points, "
        f"effective {table.fmin.freq_mhz:.0f}-{table.fmax.freq_mhz:.0f} MHz"
    )

    # The unmodified offline pipeline, pointed at the heterogeneous table.
    controller = build_controller(app, opps=table, config=PipelineConfig())
    prediction, board = run(table, power, switcher, controller.governor(), app)
    baseline, _ = run(
        table, power, switcher, PerformanceGovernor(table), app
    )

    print(
        f"\nperformance (pinned to A15@2000): "
        f"{baseline.energy_j:.2f} J, {baseline.miss_rate:.1%} misses"
    )
    print(
        f"prediction  (cluster-hopping)   : "
        f"{prediction.energy_j:.2f} J "
        f"({prediction.energy_j / baseline.energy_j:.0%}), "
        f"{prediction.miss_rate:.1%} misses"
    )

    by_setting = Counter()
    for job in prediction.jobs:
        setting = table.nearest(job.opp_mhz * 1e6)
        by_setting[str(setting)] += 1
    rows = sorted(
        ((name, count) for name, count in by_setting.items()),
        key=lambda r: -r[1],
    )
    print(
        "\n"
        + format_table(
            ["setting", "frames"],
            rows,
            title="Where frames ran (per-frame cluster + clock choice):",
        )
    )
    a15_frames = sum(
        count for name, count in by_setting.items() if name.startswith("A15")
    )
    print(
        f"\n{a15_frames}/{N_FRAMES} frames needed the big cluster; the rest "
        "stayed on the A7 — per-job heterogeneous scheduling from the same "
        "prediction flow, as §3.5 anticipates."
    )


if __name__ == "__main__":
    main()
