"""SLO watchdog demo: an error budget burns down as the platform drifts.

The run declares its objectives up front — at most 2% of jobs may miss
the deadline, the model may not chronically under-predict — and the
watchdog (``repro.telemetry.watch``) holds the run to them live, from
the same telemetry stream the Chrome-trace exporter reads.  Halfway
through, the platform slows down by x1.5; the frozen controller starts
missing, the burn rate spikes across both alert windows, and a
page-severity ``SloAlert`` fires long before the run ends.  Streaming
detectors flag the residual outliers and the miss-rate step as they
happen.

Run:  python examples/slo_watch_demo.py
"""

from repro.analysis.harness import Lab, seeded_board
from repro.runtime import TaskLoopRunner
from repro.telemetry import Telemetry, Watchdog
from repro.telemetry.slo import default_slos
from repro.telemetry.watch import render_dashboard

APP = "rijndael"
N_JOBS = 160
SHIFT = 80           # job index where the platform drifts
SLOWDOWN = 1.5
FRAME_EVERY = 40     # print a dashboard frame every this many jobs


def main():
    lab = Lab()
    app = lab.app(APP)
    governor = lab.make_governor("prediction", APP)

    telemetry = Telemetry(name=f"watch.{APP}")
    watchdog = Watchdog(
        specs=default_slos(budget_s=app.task.budget_s),
        telemetry=telemetry,
        on_observation=lambda wd, obs: (
            print(render_dashboard(wd.status(), title=f"job {obs.index}"))
            if (obs.index + 1) % FRAME_EVERY == 0
            else None
        ),
    )
    watchdog.attach(telemetry)

    board = seeded_board(
        lab.opps,
        lab.power,
        lab.jitter_sigma,
        1,
        1,
        drift=(SLOWDOWN, SHIFT * app.task.budget_s),
    )

    print(
        f"{APP}: {N_JOBS} jobs under the frozen predictive governor, "
        f"platform slows x{SLOWDOWN} at job {SHIFT}\n"
    )
    result = TaskLoopRunner(
        board=board,
        task=app.task,
        governor=governor,
        inputs=app.inputs(N_JOBS, seed=lab.seed + 11),
        interpreter=lab.interpreter,
        telemetry=telemetry,
    ).run()

    print(render_dashboard(watchdog.status(), title="final"))
    print(
        f"\nrun: {result.n_missed}/{result.n_jobs} jobs missed "
        f"({result.miss_rate:.1%}), {result.energy_j:.3f} J"
    )
    for alert in watchdog.alerts:
        print(f"SLO ALERT [{alert.severity}] at job {alert.job_index}: "
              f"{alert.message}")
    steps = [a for a in watchdog.anomalies if a.kind == "miss_rate.step"]
    outliers = [
        a for a in watchdog.anomalies if a.kind == "residual.outlier"
    ]
    print(
        f"anomalies: {len(outliers)} residual outlier(s), "
        f"{len(steps)} miss-rate step(s) "
        f"(first step at job {steps[0].job_index if steps else '-'}; "
        f"the drift hit at job {SHIFT})"
    )
    print(
        "\nthe page-severity alert is what `python -m repro watch` turns "
        "into a non-zero exit code"
    )


if __name__ == "__main__":
    main()
