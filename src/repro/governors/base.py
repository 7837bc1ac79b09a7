"""Governor interface.

A governor is the policy half of DVFS control.  The runtime executor owns
the mechanism (switching, timing, energy accounting) and consults the
governor at three moments:

- :meth:`Governor.decide` — before each job runs, with the job's inputs
  and live program state available.  Prediction-based control does its
  work here.  Returning ``None`` means "no opinion" (utilization-driven
  governors decide on timers instead).
- :meth:`Governor.on_timer` — on a fixed sampling period (when
  :attr:`Governor.timer_period_s` is set), with the CPU utilization of
  the elapsed window.  This is how the Linux governors operate.
- :meth:`Governor.on_job_end` — after each job, with its record.  History-
  based controllers (PID) learn here.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.platform.board import Board
from repro.platform.cpu import Work
from repro.platform.opp import OperatingPoint
from repro.programs.expr import Value
from repro.telemetry.events import NO_TELEMETRY
from repro.telemetry.hostprof import NO_HOSTPROF

if TYPE_CHECKING:  # avoid a circular import with the runtime package
    from repro.runtime.records import JobRecord
    from repro.telemetry.events import Telemetry
    from repro.telemetry.hostprof import HostProfiler

__all__ = ["JobContext", "Decision", "Governor"]

#: :class:`~repro.telemetry.audit.DecisionRecord`, bound by the first
#: :meth:`Governor.bind_telemetry` of an enabled telemetry: a run that
#: is not traced never loads the audit schema.
DecisionRecord = None


@dataclass
class Decision:
    """A governor's choice for one job.

    Attributes:
        opp: Target operating point for the job.
        predicted_time_s: The governor's estimate of the job's execution
            time at ``opp`` (NaN when the policy does not predict).
    """

    opp: OperatingPoint
    predicted_time_s: float = float("nan")


@dataclass
class JobContext:
    """Everything a governor may inspect before a job runs.

    Attributes:
        index: Job number.
        inputs: The job's input values (what a prediction slice reads).
        task_globals: Live program state (read via isolated forks only).
        budget_s: The job's time budget.
        deadline_s: Absolute deadline.
        board: The platform; governors may charge predictor time on it.
        charge_overheads: When False (the Fig. 18 limit study), the
            predictor must not charge its execution time or energy.
        oracle_work: The job's true work, handed over only to governors
            that set :attr:`Governor.reads_oracle_work` (the oracle);
            None for every other policy.
    """

    index: int
    inputs: Mapping[str, Value]
    task_globals: dict
    budget_s: float
    deadline_s: float
    board: Board
    charge_overheads: bool = True
    oracle_work: Work | None = None


class Governor(ABC):
    """Base class for DVFS policies."""

    #: Sampling period for utilization-driven policies; None disables timers.
    timer_period_s: float | None = None

    #: Whether :meth:`decide` reads :attr:`JobContext.oracle_work`; runners
    #: hand a job's true work only to such governors.
    reads_oracle_work: bool = False

    #: Run telemetry the executor binds before a run.  The no-op default
    #: means a governor may always write to it — when tracing is off the
    #: writes vanish at zero cost (guard hot paths with ``.enabled``).
    telemetry: "Telemetry" = NO_TELEMETRY

    #: Host-side profiler the executor binds before a run.  Same
    #: contract as :attr:`telemetry`: the disabled default costs one
    #: attribute read, so sub-phase timers (prediction slice, predict,
    #: OPP ladder) always guard with ``if self.hostprof.enabled:``.
    hostprof: "HostProfiler" = NO_HOSTPROF

    @property
    @abstractmethod
    def name(self) -> str:
        """Short identifier used in results and plots."""

    def start(self, board: Board, budget_s: float) -> None:
        """One-time setup before the first job (e.g. initial frequency)."""

    def bind_telemetry(self, telemetry: "Telemetry") -> None:
        """Attach a run's telemetry pipeline (optional observability hook).

        The executor calls this once per run.  Governors that compose
        other governors (the adaptive and batch wrappers) should
        override it and forward the binding to their delegates.  An
        enabled telemetry also binds :data:`DecisionRecord` here, so
        :meth:`audit_decision` runs no import per job.
        """
        global DecisionRecord
        self.telemetry = telemetry
        if telemetry.enabled and DecisionRecord is None:
            from repro.telemetry.audit import DecisionRecord as record

            DecisionRecord = record

    def bind_hostprof(self, hostprof: "HostProfiler") -> None:
        """Attach a run's host profiler (optional observability hook).

        Same forwarding rule as :meth:`bind_telemetry`: composing
        governors override this and pass the profiler on to their
        delegates so sub-phase timers inside the delegate still fire.
        """
        self.hostprof = hostprof

    def switch_estimate_s(self, ctx: JobContext) -> float:
        """Switch time a budgeting policy sets aside for this job (NaN:
        the policy does not budget for switches).  A number puts the
        effective-budget breakdown on the job's ``predict`` trace span."""
        return float("nan")

    def margin_value(self) -> float:
        """The safety margin the policy predicts with (NaN: none)."""
        return float("nan")

    def audit_decision(
        self,
        ctx: JobContext,
        decision: Decision | None,
        *,
        effective_budget_s: float = float("nan"),
        margin: float = float("nan"),
        mode: str = "",
        features: Mapping[str, float] | None = None,
        attribution=None,
        ladder=(),
        beta_generation: int = -1,
    ) -> None:
        """Record this job's decision (and its inputs) in the audit log.

        Instrumented governors call this from :meth:`decide` with the
        rich inputs only they know (slice features, predicted time,
        effective budget, margin — and, for model-driven decisions, the
        provenance payload from
        :func:`~repro.telemetry.provenance.build_provenance`).  For
        governors that never call it, the executor appends a bare
        record, so the log still covers every decision of the run.
        """
        telemetry = self.telemetry
        if not telemetry.enabled:
            return
        telemetry.record_decision(
            DecisionRecord(
                job_index=ctx.index,
                t_s=ctx.board.now,
                governor=self.name,
                opp_mhz=decision.opp.freq_mhz if decision is not None else None,
                predicted_time_s=(
                    decision.predicted_time_s
                    if decision is not None
                    else float("nan")
                ),
                effective_budget_s=effective_budget_s,
                margin=margin,
                mode=mode,
                features=dict(features) if features is not None else {},
                beta_generation=beta_generation,
                # O(1) timeline-accumulator read: the audit log becomes
                # an energy trajectory at no extra simulation cost.
                energy_j=ctx.board.energy_j(),
                attribution=attribution,
                ladder=tuple(ladder),
            )
        )

    @abstractmethod
    def decide(self, ctx: JobContext) -> Decision | None:
        """Frequency decision for the job about to run (None = no opinion)."""

    def on_timer(
        self, now_s: float, utilization: float
    ) -> OperatingPoint | None:
        """Periodic utilization sample; return a new OPP or None."""
        return None

    def on_job_end(self, record: "JobRecord", ctx: JobContext) -> Work | None:
        """Observe a completed job (history-based policies learn here).

        A governor whose feedback computation is non-trivial (the
        adaptive governor's online recalibration) returns its cost as a
        :class:`~repro.platform.cpu.Work` bill; the executor charges it
        as predictor time.  ``None`` means the observation was free.
        """
        return None
