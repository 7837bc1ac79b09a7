"""Scoring: per-variant deltas vs. baseline and the importance ranking.

Because every variant of a (workload, scenario) cell replayed the same
job inputs, jitter draws, and switch latencies (the runner's seed paths
exclude the variant), deltas are *paired* comparisons: job ``i`` under
the variant is the same job as job ``i`` under the baseline.  The
scorer exploits that twice:

- **bootstrap CIs** resample job indices (600 paired resamples per
  cell, seeded from the matrix root so reports are byte-reproducible)
  and read the 2.5/97.5 percentiles of the resampled delta;
- **decision provenance** aligns the two runs' audit logs job-by-job
  with :func:`~repro.telemetry.provenance.diff_decisions`, so each
  delta arrives with the dominant divergence class (margin-change,
  mode-change, beta-change, ...) explaining *why* the variant decided
  differently, not just that it did.

A component's **importance** is the mean across cells of
``|Δ miss rate| + |Δ energy/job (fraction)| + |Δ savings fraction|`` —
three dimensionless fractions, so components that move reliability and
components that move energy compete on one axis.  The ranked table is
the deliverable: it orders the registry by measured consequence.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from repro.ablation.registry import get_component
from repro.ablation.runner import AblationResult, CellResult
from repro.fleet.seeding import derive_seed
from repro.telemetry.metrics import percentile
from repro.telemetry.provenance import diff_decisions

__all__ = [
    "AblationReport",
    "BaselineStats",
    "CellDelta",
    "ComponentScore",
    "score_ablation",
]

#: Paired bootstrap resamples per cell.  600 keeps 95% CI endpoints
#: stable to ~a percent of the interval width at the matrix's job
#: counts, and the whole scoring pass under a second.
BOOTSTRAP_RESAMPLES = 600


def _ci95(values: Sequence[float]) -> tuple[float, float]:
    """Central 95% interval of bootstrap deltas; NaNs when there are none."""
    if not values:
        return float("nan"), float("nan")
    return percentile(values, 2.5), percentile(values, 97.5)


def _p05_slack_s(cell: CellResult) -> float:
    """A cell's 5th-percentile job slack; NaN when it ran no jobs."""
    slack = cell.job_slack_s
    return percentile(slack, 5.0) if slack else float("nan")


def _nan_to_zero(value: float) -> float:
    return 0.0 if math.isnan(value) else value


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


@dataclass(frozen=True)
class CellDelta:
    """One variant vs. baseline in one (workload, scenario) cell.

    Attributes:
        workload: Benchmark name.
        scenario: Scenario name.
        variant: Variant name.
        miss_rate_delta: Variant miss rate minus baseline miss rate
            (fraction; positive = variant misses more).
        miss_rate_ci: 95% paired-bootstrap interval for the miss-rate
            delta.
        energy_delta_frac: Relative change in mean energy per job
            (positive = variant spends more).
        energy_ci_frac: 95% paired-bootstrap interval for the relative
            energy change.
        p05_slack_delta_s: Change in the 5th-percentile job slack
            (negative = the variant's worst jobs run closer to, or past,
            the deadline).
        savings_frac_delta: Change in the ledger's normalized saving vs.
            the all-fmax counterfactual.
        divergences: Aligned jobs whose decisions differ from baseline.
        top_divergence: Most common divergence class (empty when the
            decision streams are identical).
    """

    workload: str
    scenario: str
    variant: str
    miss_rate_delta: float
    miss_rate_ci: tuple[float, float]
    energy_delta_frac: float
    energy_ci_frac: tuple[float, float]
    p05_slack_delta_s: float
    savings_frac_delta: float
    divergences: int
    top_divergence: str

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "scenario": self.scenario,
            "variant": self.variant,
            "miss_rate_delta": self.miss_rate_delta,
            "miss_rate_ci": list(self.miss_rate_ci),
            "energy_delta_frac": self.energy_delta_frac,
            "energy_ci_frac": list(self.energy_ci_frac),
            "p05_slack_delta_s": self.p05_slack_delta_s,
            "savings_frac_delta": _nan_to_zero(self.savings_frac_delta),
            "divergences": self.divergences,
            "top_divergence": self.top_divergence,
        }


@dataclass(frozen=True)
class ComponentScore:
    """One variant's aggregate standing across every cell it ran in.

    Attributes:
        variant: Variant name (``no-<component>`` or a pairwise name).
        disabled: The components switched off.
        title: Human label (single-component variants only; pairwise
            joins the titles).
        importance: Mean over cells of ``|Δ miss rate| + |Δ energy
            fraction| + |Δ savings fraction|`` — the ranking key.
        miss_rate_delta: Mean miss-rate delta across cells (fraction).
        miss_rate_ci: Aggregate 95% bootstrap interval (cells resampled
            jointly, then averaged).
        energy_delta_frac: Mean relative energy-per-job change.
        energy_ci_frac: Aggregate 95% bootstrap interval.
        p05_slack_delta_s: Mean change in 5th-percentile slack.
        savings_frac_delta: Mean change in the normalized saving.
        divergences: Total diverging decisions across cells.
        top_divergence: Most common divergence class across cells.
        cells: The per-cell deltas behind the aggregates.
    """

    variant: str
    disabled: tuple[str, ...]
    title: str
    importance: float
    miss_rate_delta: float
    miss_rate_ci: tuple[float, float]
    energy_delta_frac: float
    energy_ci_frac: tuple[float, float]
    p05_slack_delta_s: float
    savings_frac_delta: float
    divergences: int
    top_divergence: str
    cells: tuple[CellDelta, ...]

    def as_dict(self) -> dict:
        return {
            "variant": self.variant,
            "disabled": list(self.disabled),
            "title": self.title,
            "importance": self.importance,
            "miss_rate_delta": self.miss_rate_delta,
            "miss_rate_ci": list(self.miss_rate_ci),
            "energy_delta_frac": self.energy_delta_frac,
            "energy_ci_frac": list(self.energy_ci_frac),
            "p05_slack_delta_s": self.p05_slack_delta_s,
            "savings_frac_delta": _nan_to_zero(self.savings_frac_delta),
            "divergences": self.divergences,
            "top_divergence": self.top_divergence,
            "cells": [cell.as_dict() for cell in self.cells],
        }


@dataclass(frozen=True)
class BaselineStats:
    """The all-components-on reference the deltas are measured against."""

    miss_rate: float
    energy_per_job_j: float
    savings_frac: float
    p05_slack_s: float
    jobs: int

    def as_dict(self) -> dict:
        return {
            "miss_rate": self.miss_rate,
            "energy_per_job_j": self.energy_per_job_j,
            "savings_frac": _nan_to_zero(self.savings_frac),
            "p05_slack_s": self.p05_slack_s,
            "jobs": self.jobs,
        }


@dataclass(frozen=True)
class AblationReport:
    """The scored matrix: baseline stats plus the ranked variants."""

    workloads: tuple[str, ...]
    scenarios: tuple[str, ...]
    seed: int
    n_jobs: int
    baseline: BaselineStats
    scores: tuple[ComponentScore, ...]
    dropped_duplicates: tuple[str, ...] = ()

    def score_for(self, variant: str) -> ComponentScore:
        for score in self.scores:
            if score.variant == variant:
                return score
        raise KeyError(
            f"no variant {variant!r}; have "
            f"{[score.variant for score in self.scores]}"
        )

    def as_dict(self) -> dict:
        return {
            "workloads": list(self.workloads),
            "scenarios": list(self.scenarios),
            "seed": self.seed,
            "n_jobs": self.n_jobs,
            "baseline": self.baseline.as_dict(),
            "ranking": [score.as_dict() for score in self.scores],
            "dropped_duplicates": list(self.dropped_duplicates),
        }


def _paired_bootstrap(
    base: CellResult, variant: CellResult, rng: random.Random, resamples: int
) -> tuple[tuple[float, float], tuple[float, float]]:
    """95% CIs for (miss-rate delta, relative energy delta), paired."""
    n = min(base.n_jobs, variant.n_jobs)
    miss_deltas: list[float] = []
    energy_deltas: list[float] = []
    for _ in range(resamples):
        base_miss = 0
        var_miss = 0
        base_energy = 0.0
        var_energy = 0.0
        for _ in range(n):
            i = rng.randrange(n)
            base_miss += base.job_missed[i]
            var_miss += variant.job_missed[i]
            base_energy += base.job_energy_j[i]
            var_energy += variant.job_energy_j[i]
        miss_deltas.append((var_miss - base_miss) / n)
        if base_energy > 0:
            energy_deltas.append(var_energy / base_energy - 1.0)
    return _ci95(miss_deltas), _ci95(energy_deltas)


def _top_kind(kinds: dict[str, int]) -> str:
    if not kinds:
        return ""
    # Deterministic tie-break: count desc, then name.
    return min(kinds, key=lambda kind: (-kinds[kind], kind))


def _cell_delta(
    base: CellResult, variant: CellResult, seed: int, resamples: int
) -> CellDelta:
    rng = random.Random(
        derive_seed(
            seed,
            "ablate",
            "bootstrap",
            base.workload,
            base.scenario,
            variant.variant,
        )
    )
    miss_ci, energy_ci = _paired_bootstrap(base, variant, rng, resamples)
    diff = diff_decisions(
        base.decisions,
        variant.decisions,
        run=f"{base.workload}/{base.scenario}",
    )
    energy_delta_frac = (
        variant.energy_per_job_j / base.energy_per_job_j - 1.0
        if base.energy_per_job_j > 0
        else float("nan")
    )
    return CellDelta(
        workload=base.workload,
        scenario=base.scenario,
        variant=variant.variant,
        miss_rate_delta=variant.miss_rate - base.miss_rate,
        miss_rate_ci=miss_ci,
        energy_delta_frac=energy_delta_frac,
        energy_ci_frac=energy_ci,
        p05_slack_delta_s=_p05_slack_s(variant) - _p05_slack_s(base),
        savings_frac_delta=(
            variant.savings_frac - base.savings_frac
            if not math.isnan(variant.savings_frac)
            and not math.isnan(base.savings_frac)
            else float("nan")
        ),
        divergences=len(diff.divergences),
        top_divergence=_top_kind(diff.kinds),
    )


def _score_title(disabled: tuple[str, ...]) -> str:
    return " + ".join(get_component(name).title for name in disabled)


def score_ablation(
    result: AblationResult, resamples: int = BOOTSTRAP_RESAMPLES
) -> AblationReport:
    """Score an executed matrix into the ranked report.

    Raises:
        ValueError: When the result is missing its baseline cells.
    """
    plan = result.plan
    scenario_names = tuple(s.name for s in plan.scenarios)
    baselines: dict[tuple[str, str], CellResult] = {}
    for workload in plan.workloads:
        for scenario in scenario_names:
            baselines[(workload, scenario)] = result.cell(
                workload, scenario, "baseline"
            )
    if not baselines:
        raise ValueError("empty matrix: no baseline cells to score against")

    base_cells = list(baselines.values())
    baseline = BaselineStats(
        miss_rate=_mean([cell.miss_rate for cell in base_cells]),
        energy_per_job_j=_mean(
            [cell.energy_per_job_j for cell in base_cells]
        ),
        savings_frac=_mean(
            [
                _nan_to_zero(cell.savings_frac)
                for cell in base_cells
            ]
        ),
        p05_slack_s=_mean([_p05_slack_s(cell) for cell in base_cells]),
        jobs=sum(cell.n_jobs for cell in base_cells),
    )

    scores: list[ComponentScore] = []
    for variant in plan.variants:
        if variant.is_baseline:
            continue
        deltas = [
            _cell_delta(
                baselines[(workload, scenario)],
                result.cell(workload, scenario, variant.name),
                plan.seed,
                resamples,
            )
            for workload in plan.workloads
            for scenario in scenario_names
        ]
        importance = _mean(
            [
                abs(delta.miss_rate_delta)
                + abs(_nan_to_zero(delta.energy_delta_frac))
                + abs(_nan_to_zero(delta.savings_frac_delta))
                for delta in deltas
            ]
        )
        kind_totals: dict[str, int] = {}
        for delta in deltas:
            if delta.top_divergence:
                kind_totals[delta.top_divergence] = (
                    kind_totals.get(delta.top_divergence, 0)
                    + delta.divergences
                )
        scores.append(
            ComponentScore(
                variant=variant.name,
                disabled=variant.disabled,
                title=_score_title(variant.disabled),
                importance=importance,
                miss_rate_delta=_mean(
                    [delta.miss_rate_delta for delta in deltas]
                ),
                miss_rate_ci=(
                    _mean([delta.miss_rate_ci[0] for delta in deltas]),
                    _mean([delta.miss_rate_ci[1] for delta in deltas]),
                ),
                energy_delta_frac=_mean(
                    [
                        _nan_to_zero(delta.energy_delta_frac)
                        for delta in deltas
                    ]
                ),
                energy_ci_frac=(
                    _mean([delta.energy_ci_frac[0] for delta in deltas]),
                    _mean([delta.energy_ci_frac[1] for delta in deltas]),
                ),
                p05_slack_delta_s=_mean(
                    [delta.p05_slack_delta_s for delta in deltas]
                ),
                savings_frac_delta=_mean(
                    [
                        _nan_to_zero(delta.savings_frac_delta)
                        for delta in deltas
                    ]
                ),
                divergences=sum(delta.divergences for delta in deltas),
                top_divergence=_top_kind(kind_totals),
                cells=tuple(deltas),
            )
        )

    # The ranking: biggest measured consequence first; name breaks ties
    # so the report is stable when two components tie at zero.
    scores.sort(key=lambda score: (-score.importance, score.variant))
    return AblationReport(
        workloads=plan.workloads,
        scenarios=scenario_names,
        seed=plan.seed,
        n_jobs=plan.n_jobs,
        baseline=baseline,
        scores=tuple(scores),
        dropped_duplicates=plan.dropped_duplicates,
    )
