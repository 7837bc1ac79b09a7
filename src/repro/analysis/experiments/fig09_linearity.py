"""Fig. 9: average job execution time is linear in 1/frequency.

Validates the DVFS model ``t = T_mem + N_dep / f`` that the controller
uses to extrapolate from two anchor predictions to any level: sweep all
operating points, average job times, and fit a line against 1/f.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.harness import Lab
from repro.analysis.render import format_table
from repro.platform.cpu import SimulatedCpu

__all__ = ["LinearityResult", "run", "render"]


@dataclass(frozen=True)
class LinearityResult:
    app: str
    freqs_mhz: tuple[float, ...]
    avg_times_ms: tuple[float, ...]
    tmem_ms: float
    """Intercept of the fit: memory-bound time."""
    ndep_mcycles: float
    """Slope of the fit in mega-cycles: frequency-scaled work."""
    r_squared: float


def run(
    lab: Lab | None = None, app_name: str = "ldecode", n_jobs: int = 120
) -> LinearityResult:
    """Average job time at every operating point, plus the linear fit."""
    lab = lab if lab is not None else Lab()
    app = lab.app(app_name)
    interp = lab.interpreter
    cpu = SimulatedCpu()
    # One pass computes the work of each job; timing at each OPP follows
    # from the execution model, exactly as rerunning the app would.
    task_globals = app.task.program.fresh_globals()
    works = [
        interp.execute(app.task.program, inputs, task_globals).work
        for inputs in app.inputs(n_jobs, seed=lab.seed)
    ]
    freqs = []
    avgs = []
    for opp in lab.opps:
        times = [cpu.ideal_time(w, opp) for w in works]
        freqs.append(opp.freq_mhz)
        avgs.append(float(np.mean(times)) * 1e3)
    inv_f = 1.0 / (np.array(freqs) * 1e6)
    y = np.array(avgs) / 1e3
    slope, intercept = np.polyfit(inv_f, y, 1)
    fitted = slope * inv_f + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return LinearityResult(
        app=app_name,
        freqs_mhz=tuple(freqs),
        avg_times_ms=tuple(avgs),
        tmem_ms=float(intercept) * 1e3,
        ndep_mcycles=float(slope) / 1e6,
        r_squared=1.0 - ss_res / ss_tot,
    )


def render(result: LinearityResult) -> str:
    """Per-OPP average times plus the linear-fit summary line."""
    rows = [
        (f"{f:.0f}", f"{1000.0 / f:.3f}", f"{t:.2f}")
        for f, t in zip(result.freqs_mhz, result.avg_times_ms)
    ]
    table = format_table(
        headers=["freq[MHz]", "1/f[ns]", "avg time[ms]"],
        rows=rows,
        title=f"Fig. 9: {result.app} average job time vs 1/frequency",
    )
    return (
        f"{table}\n"
        f"linear fit: t = {result.tmem_ms:.2f} ms + "
        f"{result.ndep_mcycles:.1f} Mcycles / f   (R^2 = {result.r_squared:.5f})"
    )
