"""Fig. 3: a PID controller's expected job time lags the actual one.

Reactive control predicts the next job from past jobs, so its estimate
trails every input-driven change by at least one job — the core argument
for proactive, input-aware prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.harness import Lab
from repro.analysis.render import format_table
from repro.governors.base import JobContext
from repro.governors.pid import PidGovernor
from repro.platform.board import Board
from repro.platform.cpu import SimulatedCpu
from repro.runtime.records import JobRecord

__all__ = ["PidLagResult", "run", "render"]


@dataclass(frozen=True)
class PidLagResult:
    app: str
    actual_ms: tuple[float, ...]
    expected_ms: tuple[float, ...]
    lag_correlation: float
    """Correlation of the PID estimate with the PREVIOUS actual time —
    high when the controller is simply following one job behind."""
    instant_correlation: float
    """Correlation with the CURRENT job's time — what a proactive
    predictor would need to be high."""


def run(
    lab: Lab | None = None, app_name: str = "ldecode", n_jobs: int = 60
) -> PidLagResult:
    """Replay jobs at fmax; record actual vs PID-expected times."""
    lab = lab if lab is not None else Lab()
    app = lab.app(app_name)
    pid = PidGovernor(lab.opps)
    board = Board(opps=lab.opps)
    pid.start(board, app.task.budget_s)
    interp = lab.interpreter
    cpu = SimulatedCpu()
    task_globals = app.task.program.fresh_globals()
    fmax = lab.opps.fmax

    actual: list[float] = []
    expected: list[float] = []
    for index, inputs in enumerate(app.inputs(n_jobs, seed=lab.seed)):
        ctx = JobContext(
            index=index,
            inputs=inputs,
            task_globals=task_globals,
            budget_s=app.task.budget_s,
            deadline_s=board.now + app.task.budget_s,
            board=board,
        )
        estimate = pid.estimate_cycles
        expected.append(
            (estimate / fmax.freq_hz if estimate is not None else 0.0) * 1e3
        )
        work = interp.execute(app.task.program, inputs, task_globals).work
        time_s = cpu.ideal_time(work, fmax)
        actual.append(time_s * 1e3)
        record = JobRecord(
            index=index,
            arrival_s=board.now,
            start_s=board.now,
            end_s=board.now + time_s,
            deadline_s=board.now + app.task.budget_s,
            opp_mhz=fmax.freq_mhz,
            exec_time_s=time_s,
        )
        pid.on_job_end(record, ctx)

    a = np.array(actual[1:])
    e = np.array(expected[1:])
    lag_corr = float(np.corrcoef(e[1:], a[:-1])[0, 1])
    instant_corr = float(np.corrcoef(e, a)[0, 1])
    return PidLagResult(
        app=app_name,
        actual_ms=tuple(actual),
        expected_ms=tuple(expected),
        lag_correlation=lag_corr,
        instant_correlation=instant_corr,
    )


def render(result: PidLagResult, start: int = 10, stop: int = 21) -> str:
    """Table of actual vs PID-expected times plus lag correlations."""
    rows = [
        (i, f"{result.actual_ms[i]:.1f}", f"{result.expected_ms[i]:.1f}")
        for i in range(start, min(stop, len(result.actual_ms)))
    ]
    table = format_table(
        headers=["job", "actual[ms]", "pid-expected[ms]"],
        rows=rows,
        title=f"Fig. 3: {result.app} actual vs PID-expected execution time",
    )
    return (
        f"{table}\n"
        f"corr(expected, previous actual) = {result.lag_correlation:.3f}  "
        f"(the PID follows one job behind)\n"
        f"corr(expected, current actual)  = {result.instant_correlation:.3f}"
    )
