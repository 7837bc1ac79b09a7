"""Per-job records and whole-run results.

Everything the paper's evaluation plots is computed from these records:
energy (total and by activity tag), deadline-miss rates, predictor and
switch overheads, and per-job traces (Figs. 2 and 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.telemetry.metrics import percentile

__all__ = ["JobRecord", "RunResult"]


class JobRecord(NamedTuple):
    """What happened to one job.

    Immutable (a named tuple): a record outlives its job, in the run's
    result and the governors' histories.

    Attributes:
        index: Job number, 0-based.
        arrival_s: When the job became ready (periodic release).
        start_s: When its processing (including any predictor) began.
        end_s: When the job's work completed.
        deadline_s: Absolute deadline (arrival + budget).
        opp_mhz: Frequency the job's work started at, in MHz.
        exec_time_s: Time spent on the job's own work.
        predictor_time_s: Time spent running the DVFS predictor for this job.
        switch_time_s: Time spent in DVFS transitions for this job.
        predicted_time_s: The predictor's (margined) estimate of the job's
            execution time at the chosen level; NaN for governors that do
            not predict.
        adaptation_time_s: Time spent on post-job feedback (the adaptive
            governor's online recalibration); 0 for static governors.
    """

    index: int
    arrival_s: float
    start_s: float
    end_s: float
    deadline_s: float
    opp_mhz: float
    exec_time_s: float
    predictor_time_s: float = 0.0
    switch_time_s: float = 0.0
    predicted_time_s: float = math.nan
    adaptation_time_s: float = 0.0

    @property
    def missed(self) -> bool:
        """Whether the job finished after its deadline."""
        return self.end_s > self.deadline_s

    @property
    def slack_s(self) -> float:
        """Time to spare (negative when the deadline was missed)."""
        return self.deadline_s - self.end_s


@dataclass
class RunResult:
    """Aggregated outcome of one simulated task run.

    Attributes:
        governor: Name of the DVFS controller used.
        app: Name of the application.
        budget_s: Per-job time budget.
        jobs: Per-job records, in order.
        energy_j: Total energy consumed over the run.
        energy_by_tag: Energy split by activity ("job", "predictor",
            "switch", "idle").
        switch_count: Number of DVFS transitions performed.
    """

    governor: str
    app: str
    budget_s: float
    jobs: list[JobRecord] = field(default_factory=list)
    energy_j: float = 0.0
    energy_by_tag: dict[str, float] = field(default_factory=dict)
    switch_count: int = 0

    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    @property
    def n_missed(self) -> int:
        return sum(1 for j in self.jobs if j.missed)

    @property
    def miss_rate(self) -> float:
        """Fraction of jobs that missed their deadline (0 when no jobs)."""
        if not self.jobs:
            return 0.0
        return self.n_missed / len(self.jobs)

    @property
    def exec_times_s(self) -> list[float]:
        return [j.exec_time_s for j in self.jobs]

    @property
    def mean_predictor_time_s(self) -> float:
        if not self.jobs:
            return 0.0
        return sum(j.predictor_time_s for j in self.jobs) / len(self.jobs)

    @property
    def mean_switch_time_s(self) -> float:
        if not self.jobs:
            return 0.0
        return sum(j.switch_time_s for j in self.jobs) / len(self.jobs)

    @property
    def mean_adaptation_time_s(self) -> float:
        if not self.jobs:
            return 0.0
        return sum(j.adaptation_time_s for j in self.jobs) / len(self.jobs)

    def exec_time_percentile(self, pct: float) -> float:
        """The ``pct``-th percentile of per-job execution time (seconds).

        Shares :func:`repro.telemetry.metrics.percentile` with the
        metrics histograms, so report quantiles and result quantiles
        use one interpolation convention.  NaN on a zero-job run.
        """
        if not self.jobs:
            return float("nan")
        return percentile(self.exec_times_s, pct)

    def slack_percentile(self, pct: float) -> float:
        """The ``pct``-th percentile of per-job slack (seconds).

        Low percentiles are the interesting tail: p5 slack is how close
        the tightest jobs came to (or past) their deadline — negative
        values are misses.  NaN on a zero-job run.
        """
        if not self.jobs:
            return float("nan")
        return percentile([j.slack_s for j in self.jobs], pct)

    def energy_relative_to(self, reference: "RunResult") -> float:
        """This run's energy as a fraction of ``reference``'s (Fig. 15)."""
        if reference.energy_j <= 0:
            raise ValueError("reference run consumed no energy")
        return self.energy_j / reference.energy_j
