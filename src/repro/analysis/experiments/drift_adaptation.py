"""Drift-injection study: online adaptation vs the frozen controller.

The paper trains its execution-time model once, offline, and freezes it
(§4.2).  This experiment asks what happens when the deployed platform
drifts away from the profile — every job slows down by a constant factor
mid-run (thermal throttling, heavier content at identical feature
counts) — and whether the online adaptation subsystem recovers.

Three governors see the identical drifted job stream:

- ``prediction``: the paper's frozen controller.  Its model cannot see
  the slowdown, so it under-predicts and misses deadlines from the shift
  until the end of the run.
- ``adaptive``: the same controller wrapped with drift detection,
  recursive-least-squares recalibration, and a deadline-safe fallback.
- ``performance``: always-fmax, the energy ceiling and miss floor.

Reported per governor: deadline-miss rates over a window just before the
shift, just after it, and at the end of the run; total energy (and the
ratio to the performance run); and the mean per-job predictor and
adaptation times, so the feedback loop's cost can be compared against
the Fig. 17 predictor envelope.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.analysis.harness import Lab, seeded_board
from repro.analysis.render import format_table
from repro.runtime.executor import TaskLoopRunner
from repro.runtime.records import JobRecord

__all__ = ["DriftRow", "DriftAdaptationResult", "run", "render"]

#: Governors compared on the drifted job stream, in report order.
DRIFT_GOVERNORS = ("prediction", "adaptive", "performance")


@dataclass(frozen=True)
class DriftRow:
    """One governor's outcome on the drifted run.

    Attributes:
        governor: Governor name.
        pre_miss_rate: Miss rate over the window ending at the shift.
        post_miss_rate: Miss rate over the window starting at the shift.
        final_miss_rate: Miss rate over the last window of the run.
        energy_j: Total energy of the run.
        energy_vs_performance: Energy relative to the performance run.
        mean_predictor_ms: Mean per-job prediction-slice time.
        mean_adaptation_ms: Mean per-job feedback (recalibration) time.
        drift_events: Drift alarms raised (adaptive governor only).
        final_margin: Safety margin at end of run (NaN unless adaptive).
        p95_exec_ms: 95th-percentile per-job execution time.
        p05_slack_ms: 5th-percentile slack — the tight tail (negative
            means the tail missed).
    """

    governor: str
    pre_miss_rate: float
    post_miss_rate: float
    final_miss_rate: float
    energy_j: float
    energy_vs_performance: float
    mean_predictor_ms: float
    mean_adaptation_ms: float
    drift_events: int = 0
    final_margin: float = float("nan")
    p95_exec_ms: float = float("nan")
    p05_slack_ms: float = float("nan")


@dataclass(frozen=True)
class DriftAdaptationResult:
    """Windowed miss/energy comparison under an injected mid-run shift.

    ``input_scale`` is always 1.0: the shift slows execution, never the
    job inputs.  It stays a field so saved results keep their keys.
    """

    app: str
    n_jobs: int
    shift_job: int
    slowdown: float
    input_scale: float
    window: int
    rows: tuple[DriftRow, ...]

    def row(self, governor: str) -> DriftRow:
        """The row for one governor (raises if it was not run)."""
        for row in self.rows:
            if row.governor == governor:
                return row
        raise KeyError(f"governor {governor!r} not in this result")


def _window_miss(jobs: list[JobRecord], start: int, stop: int) -> float:
    window = jobs[start:stop]
    if not window:
        return 0.0
    return sum(1 for j in window if j.missed) / len(window)


def run(
    lab: Lab | None = None,
    app_name: str = "ldecode",
    n_jobs: int = 240,
    slowdown: float = 1.35,
    shift_fraction: float = 0.5,
    window: int | None = None,
    governors: tuple[str, ...] = DRIFT_GOVERNORS,
    seed_offset: int = 11,
) -> DriftAdaptationResult:
    """Run the drifted job stream under each governor.

    Args:
        lab: Experiment workbench (a default one is built if omitted).
        app_name: Application under test.
        n_jobs: Jobs in the run.
        slowdown: Multiplicative execution-time factor from the shift on.
        shift_fraction: Where the shift lands, as a fraction of the run.
        window: Jobs per miss-rate window; defaults to a third of the
            shorter run segment, capped at 40.
        governors: Governor names to compare.
        seed_offset: Offset from the lab seed for evaluation inputs.
    """
    lab = lab if lab is not None else Lab()
    shift_job = int(n_jobs * shift_fraction)
    if not 0 < shift_job < n_jobs:
        raise ValueError("shift must fall strictly inside the run")
    if window is None:
        window = max(10, min(40, shift_job // 3, (n_jobs - shift_job) // 3))

    app = lab.app(app_name)
    inputs = app.inputs(n_jobs, seed=lab.seed + seed_offset)

    results = {}
    for name in governors:
        governor = lab.make_governor(name, app_name)
        run_seed = zlib.crc32(
            f"{lab.seed}|drift|{app_name}|{name}".encode()
        )
        board = seeded_board(
            lab.opps,
            lab.power,
            lab.jitter_sigma,
            run_seed,
            run_seed,
            drift=(slowdown, shift_job * app.task.budget_s),
        )
        runner = TaskLoopRunner(
            board=board,
            task=app.task,
            governor=governor,
            inputs=inputs,
            interpreter=lab.interpreter,
            telemetry=lab.telemetry_for(f"drift.{app_name}.{name}"),
        )
        results[name] = (runner.run(), governor)

    reference_energy = (
        results["performance"][0].energy_j
        if "performance" in results
        else float("nan")
    )
    rows = []
    for name in governors:
        result, governor = results[name]
        jobs = result.jobs
        drift_events = getattr(governor, "drift_events", 0)
        # Adaptive governors expose an AdaptiveMargin object; the frozen
        # predictor's margin is a plain float and reports NaN here.
        margin = getattr(
            getattr(governor, "predictor", None), "margin", None
        )
        final_margin = getattr(margin, "value", float("nan"))
        rows.append(
            DriftRow(
                governor=name,
                pre_miss_rate=_window_miss(
                    jobs, shift_job - window, shift_job
                ),
                post_miss_rate=_window_miss(
                    jobs, shift_job, shift_job + window
                ),
                final_miss_rate=_window_miss(jobs, n_jobs - window, n_jobs),
                energy_j=result.energy_j,
                energy_vs_performance=result.energy_j / reference_energy,
                mean_predictor_ms=result.mean_predictor_time_s * 1e3,
                mean_adaptation_ms=result.mean_adaptation_time_s * 1e3,
                drift_events=drift_events,
                final_margin=final_margin,
                p95_exec_ms=result.exec_time_percentile(95) * 1e3,
                p05_slack_ms=result.slack_percentile(5) * 1e3,
            )
        )
    return DriftAdaptationResult(
        app=app_name,
        n_jobs=n_jobs,
        shift_job=shift_job,
        slowdown=slowdown,
        input_scale=1.0,
        window=window,
        rows=tuple(rows),
    )


def render(result: DriftAdaptationResult) -> str:
    """Windowed miss rates and energy per governor."""
    rows = []
    for r in result.rows:
        rows.append(
            (
                r.governor,
                f"{100 * r.pre_miss_rate:.1f}%",
                f"{100 * r.post_miss_rate:.1f}%",
                f"{100 * r.final_miss_rate:.1f}%",
                f"{r.energy_j:.3f}",
                f"{r.energy_vs_performance:.2f}",
                f"{r.mean_predictor_ms:.3f}",
                f"{r.mean_adaptation_ms:.3f}",
                r.drift_events,
                f"{r.p95_exec_ms:.2f}",
                f"{r.p05_slack_ms:.2f}",
            )
        )
    return format_table(
        headers=[
            "governor", "pre-miss", "post-miss", "final-miss",
            "energy[J]", "vs-perf", "pred[ms]", "adapt[ms]", "alarms",
            "p95-exec[ms]", "p05-slack[ms]",
        ],
        rows=rows,
        title=(
            f"Drift study: {result.app}, x{result.slowdown:.2f} slowdown "
            f"at job {result.shift_job}/{result.n_jobs} "
            f"(miss rates over {result.window}-job windows)"
        ),
    )
