"""Drift demo: the frozen controller breaks, the adaptive one recovers.

Halfway through an ldecode run the simulated platform slows down by
x1.35 — think thermal throttling, or frames that got heavier without
changing the control-flow features the slice computes.  The paper's
frozen controller keeps predicting from its offline fit, under-predicts
every job, and misses deadlines until the end of the run.  The adaptive
governor (``repro.governors.adaptive``) watches its own residuals,
raises a drift alarm, falls back to a deadline-safe policy while a
weighted recursive-least-squares update recalibrates the model, then
re-engages prediction and finishes the run missing nothing.

Run:  python examples/drift_demo.py
"""

from repro.analysis.harness import Lab, seeded_board
from repro.runtime.executor import TaskLoopRunner

APP = "ldecode"
N_JOBS = 240
SHIFT = 120          # job index where the platform drifts
SLOWDOWN = 1.35
BUCKET = 20          # jobs per timeline bucket


def run_drifted(lab, app, governor, seed):
    """One run with a time-triggered mid-run slowdown injected."""
    runner = TaskLoopRunner(
        board=seeded_board(
            lab.opps,
            lab.power,
            lab.jitter_sigma,
            seed,
            seed,
            drift=(SLOWDOWN, SHIFT * app.task.budget_s),
        ),
        task=app.task,
        governor=governor,
        inputs=app.inputs(N_JOBS, seed=lab.seed + 11),
        interpreter=lab.interpreter,
    )
    return runner.run()


def timeline(label, jobs):
    """Miss rate per BUCKET-job window, as a little bar chart."""
    print(f"  {label}")
    for start in range(0, len(jobs), BUCKET):
        window = jobs[start:start + BUCKET]
        rate = sum(1 for j in window if j.missed) / len(window)
        marker = " <- drift" if start == SHIFT else ""
        bar = "#" * round(rate * 20)
        print(f"    jobs {start:3d}-{start + len(window) - 1:3d} "
              f"{100 * rate:5.1f}% {bar}{marker}")


def main():
    lab = Lab()
    app = lab.app(APP)
    print(f"{APP}: {N_JOBS} jobs, platform slows x{SLOWDOWN} at job {SHIFT}\n")

    frozen = run_drifted(lab, app, lab.make_governor("prediction", APP), seed=1)
    adaptive_gov = lab.make_governor("adaptive", APP)
    adaptive = run_drifted(lab, app, adaptive_gov, seed=1)
    reference = run_drifted(lab, app, lab.make_governor("performance", APP), seed=1)

    print("deadline misses over time:\n")
    timeline("prediction (frozen offline model)", frozen.jobs)
    print()
    timeline("adaptive (drift detection + online recalibration)", adaptive.jobs)

    print(f"\nthe adaptive governor raised {adaptive_gov.drift_events} drift "
          f"alarm(s), recalibrated in fallback, and re-engaged prediction "
          f"(final mode: {adaptive_gov.mode.name})")
    print(f"safety margin settled at "
          f"{adaptive_gov.predictor.margin.value:.1%} "
          f"(the paper's fixed margin: 10.0%)")

    print(f"\nenergy   performance: {reference.energy_j:7.3f} J   (1.00)")
    for name, result in (("prediction", frozen), ("adaptive", adaptive)):
        ratio = result.energy_j / reference.energy_j
        print(f"         {name}: {result.energy_j:7.3f} J   ({ratio:.2f})")
    print(f"\nmisses   frozen {frozen.miss_rate:.1%} vs "
          f"adaptive {adaptive.miss_rate:.1%} over the whole run")


if __name__ == "__main__":
    main()
