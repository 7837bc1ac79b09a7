"""Deterministic, multiprocess execution of an ablation matrix.

The determinism contract mirrors the fleet simulator's: every random
stream a cell consumes is seeded from the *path that names it* —
``(root seed, "ablate", workload, scenario, purpose)`` — never from the
variant (so baseline and variants replay identical job inputs, jitter
draws, and switch latencies, making per-job deltas paired comparisons)
and never from the worker (so results are byte-identical for every
``--workers`` value).

Boards come from :func:`repro.analysis.harness.seeded_board`, trained
controllers from the process-wide cache behind
:class:`~repro.analysis.harness.Lab`.  The cache key holds the root
seed, so a plan's results never depend on which plans ran before it in
the process.  :func:`run_ablation` pre-warms the cache with every
controller the plan needs before forking, so pool workers inherit the
trained artifacts for free and only replay the cheap online half.

Cells come back as picklable :class:`CellResult` values carrying the
per-job records scoring needs (paired energy/miss/slack arrays and the
full decision audit log), merged in the plan's canonical cell order.
"""

from __future__ import annotations

import multiprocessing
import warnings
from dataclasses import dataclass
from typing import Any, Mapping

from repro.ablation.planner import AblationPlan, CellPlan
from repro.ablation.registry import baseline_pipeline, configs_without
from repro.analysis.harness import Lab, seeded_board
from repro.fleet.seeding import derive_seed
from repro.governors.adaptive import AdaptiveConfig, AdaptiveGovernor
from repro.pipeline.offline import TrainedController
from repro.runtime.executor import TaskLoopRunner
from repro.telemetry.audit import DecisionRecord
from repro.telemetry.energy import EnergyLedger
from repro.telemetry.events import Telemetry

__all__ = ["AblationResult", "CellResult", "run_ablation", "run_cell"]


@dataclass(frozen=True)
class CellResult:
    """One executed cell, ready to merge worker-count-independently.

    Attributes:
        workload: Benchmark name.
        scenario: Scenario name.
        variant: Variant name (``baseline`` or ``no-...``).
        n_jobs: Jobs executed.
        misses: Deadline misses.
        energy_j: Total board energy over the run.
        savings_frac: The energy ledger's normalized saving vs. the
            all-fmax counterfactual (NaN before data).
        switches: DVFS transitions performed.
        job_energy_j: Per-job attributed joules, in job order (paired
            with the same-index entries of every other variant in the
            same (workload, scenario) cell — shared seed paths).
        job_missed: Per-job miss flags, in job order.
        job_slack_s: Per-job slack, in job order.
        decisions: The run's full decision audit log.
    """

    workload: str
    scenario: str
    variant: str
    n_jobs: int
    misses: int
    energy_j: float
    savings_frac: float
    switches: int
    job_energy_j: tuple[float, ...]
    job_missed: tuple[bool, ...]
    job_slack_s: tuple[float, ...]
    decisions: tuple[DecisionRecord, ...]

    @property
    def miss_rate(self) -> float:
        return self.misses / self.n_jobs if self.n_jobs else 0.0

    @property
    def energy_per_job_j(self) -> float:
        return self.energy_j / self.n_jobs if self.n_jobs else 0.0

    def as_dict(self) -> dict:
        """JSON-safe rendering (decisions via their audit schema)."""
        return {
            "workload": self.workload,
            "scenario": self.scenario,
            "variant": self.variant,
            "n_jobs": self.n_jobs,
            "misses": self.misses,
            "energy_j": self.energy_j,
            "savings_frac": self.savings_frac,
            "switches": self.switches,
            "job_energy_j": list(self.job_energy_j),
            "job_missed": list(self.job_missed),
            "job_slack_s": list(self.job_slack_s),
            "decisions": [record.as_dict() for record in self.decisions],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CellResult":
        return cls(
            workload=str(payload["workload"]),
            scenario=str(payload["scenario"]),
            variant=str(payload["variant"]),
            n_jobs=int(payload["n_jobs"]),
            misses=int(payload["misses"]),
            energy_j=float(payload["energy_j"]),
            savings_frac=float(
                payload["savings_frac"]
                if payload["savings_frac"] is not None
                else "nan"
            ),
            switches=int(payload["switches"]),
            job_energy_j=tuple(float(v) for v in payload["job_energy_j"]),
            job_missed=tuple(bool(v) for v in payload["job_missed"]),
            job_slack_s=tuple(float(v) for v in payload["job_slack_s"]),
            decisions=tuple(
                DecisionRecord.from_dict(record)
                for record in payload["decisions"]
            ),
        )


@dataclass(frozen=True)
class AblationResult:
    """An executed matrix: the plan plus every cell, in canonical order."""

    plan: AblationPlan
    cells: tuple[CellResult, ...]

    def cell(self, workload: str, scenario: str, variant: str) -> CellResult:
        """Look one cell up (KeyError with the valid axes when absent)."""
        for candidate in self.cells:
            if (
                candidate.workload == workload
                and candidate.scenario == scenario
                and candidate.variant == variant
            ):
                return candidate
        raise KeyError(
            f"no cell ({workload!r}, {scenario!r}, {variant!r}); "
            f"workloads={list(self.plan.workloads)}, "
            f"scenarios={[s.name for s in self.plan.scenarios]}, "
            f"variants={[v.name for v in self.plan.variants]}"
        )

    def as_dict(self) -> dict:
        import json

        return {
            "plan": json.loads(self.plan.to_json()),
            "cells": [cell.as_dict() for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AblationResult":
        import json

        return cls(
            plan=AblationPlan.from_json(json.dumps(payload["plan"])),
            cells=tuple(
                CellResult.from_dict(cell) for cell in payload["cells"]
            ),
        )


def _lab(seed: int, switch_samples: int) -> Lab:
    """The build context of a plan: its switch-time microbenchmark runs
    at a seed derived from the plan's root seed."""
    return Lab(
        seed=derive_seed(seed, "ablate", "switchbench"),
        switch_samples=switch_samples,
    )


def _controller(
    lab: Lab, cell: CellPlan
) -> tuple[TrainedController, AdaptiveConfig]:
    """The cell's controller, trained with exactly the plan's profile
    size, and the adaptive config its variant runs with."""
    pipeline, adaptive = configs_without(
        cell.variant.disabled,
        pipeline=baseline_pipeline(
            n_profile_jobs=cell.profile_jobs,
            switch_samples=cell.switch_samples,
        ),
    )
    with warnings.catch_warnings():
        # The slicing-off variant certifies with certify="warn" (a
        # whole program need not pass the slice purity rule); the
        # warning is the expected cost of that ablation, not news.
        warnings.simplefilter("ignore")
        return lab.trained_controller(cell.workload, pipeline), adaptive


def run_cell(cell: CellPlan) -> CellResult:
    """Execute one cell start to finish.

    Top-level (hence picklable) so a ``multiprocessing`` pool can map
    over cell plans directly.
    """
    lab = _lab(cell.seed, cell.switch_samples)
    controller, adaptive = _controller(lab, cell)
    app = lab.app(cell.workload)
    scenario = cell.scenario
    budget = app.task.budget_s * scenario.budget_scale
    root = cell.seed

    def stream_seed(purpose: str) -> int:
        # The variant is deliberately absent: every variant of a
        # (workload, scenario) cell replays identical inputs, jitter,
        # and switch draws, so per-job deltas are paired comparisons.
        return derive_seed(root, "ablate", cell.workload, scenario.name, purpose)

    board = seeded_board(
        lab.opps,
        lab.power,
        scenario.jitter_sigma,
        stream_seed("jitter"),
        stream_seed("switch"),
        drift=(scenario.drift_factor, scenario.drift_at_frac * cell.n_jobs * budget),
    )
    governor = AdaptiveGovernor.from_controller(
        controller, config=adaptive, interpreter=lab.interpreter
    )
    ledger = EnergyLedger(board.power, board.opps)
    telemetry = Telemetry(
        name=f"{cell.workload}/{scenario.name}/{cell.variant.name}"
    )
    runner = TaskLoopRunner(
        board=board,
        task=app.task.with_budget(budget),
        governor=governor,
        inputs=app.inputs(cell.n_jobs, seed=stream_seed("inputs")),
        interpreter=lab.interpreter,
        telemetry=telemetry,
        energy=ledger,
    )
    result = runner.run()
    ledger.check_conservation(board)

    return CellResult(
        workload=cell.workload,
        scenario=scenario.name,
        variant=cell.variant.name,
        n_jobs=result.n_jobs,
        misses=result.n_missed,
        energy_j=result.energy_j,
        savings_frac=ledger.savings_frac,
        switches=result.switch_count,
        job_energy_j=tuple(
            ledger.job_energy_j(job.index) for job in result.jobs
        ),
        job_missed=tuple(job.missed for job in result.jobs),
        job_slack_s=tuple(job.slack_s for job in result.jobs),
        decisions=tuple(telemetry.decisions),
    )


def _prewarm(plan: AblationPlan) -> None:
    """Train every needed controller once, in this process."""
    lab = _lab(plan.seed, plan.switch_samples)
    for cell in plan.cells:
        _controller(lab, cell)


def run_ablation(plan: AblationPlan, workers: int = 1) -> AblationResult:
    """Execute a planned matrix; results are independent of ``workers``.

    Args:
        plan: The matrix to run.
        workers: Process count.  1 runs cells in-process; more forks a
            ``multiprocessing`` pool over cell plans (capped at the
            cell count).  Controllers are pre-warmed in the parent
            either way, so workers inherit the trained artifacts.
    """
    if workers < 1:
        raise ValueError(f"need >= 1 worker, got {workers}")
    cells = plan.cells
    _prewarm(plan)
    workers = min(workers, len(cells))
    if workers == 1:
        results = tuple(run_cell(cell) for cell in cells)
    else:
        with multiprocessing.Pool(processes=workers) as pool:
            results = tuple(pool.map(run_cell, cells))
    return AblationResult(plan=plan, cells=results)
