"""Fig. 16: energy and misses as the time budget sweeps 0.6x - 1.4x.

Normalized budget 1.0 is the maximum job time observed at maximum
frequency — the tightest budget every job can meet.  Below 1.0 even the
performance governor misses; prediction-based control should track those
unavoidable misses while spending far less energy, and should keep
increasing its savings as the budget loosens.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.harness import Lab
from repro.analysis.render import format_table

__all__ = ["SweepPoint", "BudgetSweepResult", "run", "render"]

DEFAULT_GOVERNORS = ("performance", "interactive", "pid", "prediction")
DEFAULT_BUDGET_FACTORS = (0.6, 0.8, 1.0, 1.2, 1.4)


@dataclass(frozen=True)
class SweepPoint:
    governor: str
    budget_factor: float
    budget_ms: float
    energy_pct: float
    """Normalized to the performance governor at the SAME budget."""
    miss_pct: float


@dataclass(frozen=True)
class BudgetSweepResult:
    app: str
    max_job_time_ms: float
    """The measured fmax max job time defining normalized budget 1.0."""
    points: tuple[SweepPoint, ...]

    def series(self, governor: str) -> list[SweepPoint]:
        """This governor's sweep points, in budget order."""
        return [p for p in self.points if p.governor == governor]


def run(
    lab: Lab | None = None,
    app_name: str = "ldecode",
    governors: tuple[str, ...] = DEFAULT_GOVERNORS,
    budget_factors: tuple[float, ...] = DEFAULT_BUDGET_FACTORS,
    n_jobs: int | None = None,
) -> BudgetSweepResult:
    """Sweep the budget for one app across governors."""
    lab = lab if lab is not None else Lab()
    reference = lab.run(app_name, "performance", n_jobs=n_jobs)
    max_time_s = max(reference.exec_times_s)
    points = []
    for factor in budget_factors:
        budget = factor * max_time_s
        for governor in governors:
            result = lab.run(app_name, governor, budget_s=budget, n_jobs=n_jobs)
            points.append(
                SweepPoint(
                    governor=governor,
                    budget_factor=factor,
                    budget_ms=budget * 1e3,
                    energy_pct=lab.normalized_energy(result, app_name) * 100.0,
                    miss_pct=result.miss_rate * 100.0,
                )
            )
    return BudgetSweepResult(
        app=app_name,
        max_job_time_ms=max_time_s * 1e3,
        points=tuple(points),
    )


def render(result: BudgetSweepResult) -> str:
    """Energy/miss table indexed by normalized budget."""
    governors = list(dict.fromkeys(p.governor for p in result.points))
    factors = sorted({p.budget_factor for p in result.points})
    headers = ["norm.budget"] + [f"{g}[E% / m%]" for g in governors]
    rows = []
    for factor in factors:
        row: list[object] = [f"{factor:.1f}"]
        for g in governors:
            match = [
                p
                for p in result.points
                if p.governor == g and p.budget_factor == factor
            ][0]
            row.append(f"{match.energy_pct:6.1f} / {match.miss_pct:5.1f}")
        rows.append(row)
    return format_table(
        headers,
        rows,
        title=(
            f"Fig. 16: {result.app} energy/misses vs normalized budget "
            f"(budget 1.0 = {result.max_job_time_ms:.1f} ms)"
        ),
    )
