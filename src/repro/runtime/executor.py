"""The task-loop runner: executes jobs under a governor on a Board.

This is the mechanism half of DVFS control.  Per job it:

1. idles until the periodic release (optionally dropping to fmin for the
   gap — the paper's §5.5 idling);
2. interprets the task program once, on an isolated fork of the live
   globals: the run yields the job's Work, and the fork keeps pre-job
   state visible to the governor's slice;
3. consults the governor (running any prediction slice, with the chosen
   placement mode);
4. performs the DVFS switch, charged or free (the Fig. 18 limit study);
5. executes the job's work, splitting it at utilization-timer boundaries
   so sampled governors (interactive/ondemand) can retarget mid-job;
6. commits the run's final globals to the live ones, records the job and
   reports it back to the governor.

Timing noise: one multiplicative jitter factor is drawn per job from the
board's jitter model, so a job's remaining work stays consistent when a
mid-job frequency change re-times it.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Mapping, Sequence

from repro.governors.base import Decision, Governor, JobContext
from repro.governors.predictive import PredictiveGovernor
from repro.platform.board import Board
from repro.platform.cpu import Work
from repro.platform.opp import OperatingPoint
from repro.programs.expr import Value
from repro.programs.interpreter import Interpreter
from repro.runtime.placement import PredictorPlacement
from repro.runtime.records import JobRecord, RunResult
from repro.runtime.task import Task
from repro.telemetry.energy import NO_ENERGY_LEDGER, EnergyLedger
from repro.telemetry.events import NO_TELEMETRY, Telemetry
from repro.telemetry.hostprof import NO_HOSTPROF, HostProfiler

__all__ = ["TaskLoopRunner"]

#: :class:`~repro.telemetry.audit.DecisionRecord`, bound by the first
#: :meth:`TaskLoopRunner.start` with an enabled telemetry: a run that is
#: not traced never loads the audit schema.
DecisionRecord = None

_EPS = 1e-12
#: With idling on, a gap this short or shorter stays at the current
#: level: it is not worth two DVFS switches (roughly twice the typical
#: switch latency).
IDLE_MIN_GAP_S = 0.004


class TaskLoopRunner:
    """Runs a task's job stream under one governor.

    Attributes:
        board: The simulated platform (owns time, energy, frequency).
        task: The annotated task (program + budget).
        governor: The DVFS policy under test.
        inputs: Per-job input dicts, in release order.
        interpreter: Executes the task program (job semantics + work).
        placement: Predictor placement mode (only affects
            :class:`~repro.governors.predictive.PredictiveGovernor`).
        idle: Drop to fmin for each between-job gap longer than
            ``IDLE_MIN_GAP_S`` and restore the pre-idle level at the next
            release, unless the governor decides for itself (Fig. 21).
        charge_predictor: Charge predictor time/energy (False for Fig. 18).
        charge_switch: Charge DVFS switch time/energy (False for Fig. 18).
        telemetry: Run observability pipeline (spans, metrics, decision
            audit).  Defaults to the zero-cost no-op; telemetry never
            influences the simulation, only records it.
        hostprof: Host-side profiler charging *wall-clock* phases
            (interpreter eval, governor decision, switch, record
            bookkeeping) — observes the simulator itself, not the
            simulated platform.  Defaults to the zero-cost no-op;
            every site guards on ``hostprof.enabled`` so a disabled
            run pays one attribute read and allocates nothing.
        arrivals: Optional explicit release schedule, one non-decreasing
            absolute time per job.  ``None`` keeps the classic periodic
            release (``index * budget_s``); the fleet layer passes the
            draws of an arrival process (Poisson, bursty, diurnal) here.
            Deadlines stay ``arrival + budget_s`` either way, so a
            burst that outruns the processor queues jobs and eats into
            their budgets exactly like a congested interactive session.
        energy: Per-job x per-phase x per-OPP energy attribution ledger
            (:class:`~repro.telemetry.energy.EnergyLedger`).  The runner
            subscribes it to the board's segment stream and marks job /
            feedback boundaries and predictor-overlap energy; the ledger
            then satisfies its conservation invariant against
            ``board.energy_j()``.  Defaults to the zero-cost no-op.
    """

    def __init__(
        self,
        board: Board,
        task: Task,
        governor: Governor,
        inputs: Sequence[Mapping[str, Value]],
        interpreter: Interpreter | None = None,
        placement: PredictorPlacement = PredictorPlacement.SEQUENTIAL,
        idle: bool = False,
        charge_predictor: bool = True,
        charge_switch: bool = True,
        telemetry: Telemetry | None = None,
        arrivals: Sequence[float] | None = None,
        hostprof: HostProfiler | None = None,
        energy: EnergyLedger | None = None,
    ):
        if not inputs:
            raise ValueError("need at least one job input")
        self.board = board
        self.task = task
        self.governor = governor
        self.inputs = list(inputs)
        self.interpreter = interpreter if interpreter is not None else Interpreter()
        self.placement = placement
        self.idle = idle
        self.charge_predictor = charge_predictor
        self.charge_switch = charge_switch
        self.telemetry = telemetry if telemetry is not None else NO_TELEMETRY
        self.hostprof = hostprof if hostprof is not None else NO_HOSTPROF
        self.energy = energy if energy is not None else NO_ENERGY_LEDGER
        self.arrivals = self._validated_arrivals(arrivals)
        self._init_run_state()

    def _validated_arrivals(
        self, arrivals: Sequence[float] | None
    ) -> list[float] | None:
        if arrivals is None:
            return None
        schedule = [float(t) for t in arrivals]
        if len(schedule) != len(self.inputs):
            raise ValueError(
                f"arrival schedule has {len(schedule)} entries for "
                f"{len(self.inputs)} jobs"
            )
        if any(t < 0 for t in schedule):
            raise ValueError("arrival times must be non-negative")
        if any(b < a for a, b in zip(schedule, schedule[1:])):
            raise ValueError("arrival times must be non-decreasing")
        return schedule

    def _init_run_state(self) -> None:
        """(Re)initialize every piece of per-run mutable state."""
        # Timer state for utilization-sampled governors.
        self._timer_period = self.governor.timer_period_s
        self._next_timer = (
            self._timer_period if self._timer_period is not None else None
        )
        self._window_busy_s = 0.0
        # Energy of predictor work overlapped with job execution (pipelined
        # placement) — the timeline is single-threaded, so overlap is
        # accounted separately and folded into the result.
        self._overlap_energy_j = 0.0
        self._switches = 0
        # Level to restore after an idling dip to fmin, when the governor
        # itself has no opinion at the next job start.
        self._restore_opp: OperatingPoint | None = None
        self._started = False
        self._next_index = 0
        self._task_globals: dict | None = None
        self._records: list[JobRecord] = []
        # Telemetry metrics touched every job or chunk, resolved on first
        # use so the registry's creation order stays that of the run.
        self._job_metrics: tuple | None = None
        self._residency: dict[float, object] = {}

    # -- public API -----------------------------------------------------------
    def reset(
        self, board: Board | None = None, governor: Governor | None = None
    ) -> None:
        """Return the runner to its pre-run state so it can run again.

        For callers that replay one configured runner round after round
        (the repository benchmark does; fleet sessions build a fresh
        runner each); without this, switch counts, overlap energy, timer
        phase, and job records would bleed from one run into the next.
        The board is a stateful accumulator (time, energy), so a reset
        that should be indistinguishable from a fresh runner must supply
        a fresh one; the governor likewise if it learns online.  Passing
        ``None`` keeps the current object.  Inputs, release schedule,
        telemetry, host profiler and energy ledger stay as built.
        """
        if board is not None:
            self.board = board
        if governor is not None:
            self.governor = governor
        self._init_run_state()

    def arrival_s(self, index: int) -> float:
        """Release time of job ``index`` under the active schedule."""
        if self.arrivals is not None:
            return self.arrivals[index]
        return index * self.task.budget_s

    def next_arrival_s(self) -> float | None:
        """Release time of the next pending job; None when all jobs ran.

        :class:`~repro.runtime.multitask.MultiTaskRunner` steps
        whichever stream's runner has the earliest such release.
        """
        if self._next_index >= len(self.inputs):
            return None
        return self.arrival_s(self._next_index)

    @property
    def jobs_remaining(self) -> int:
        return len(self.inputs) - self._next_index

    def start(self) -> None:
        """One-time run setup: telemetry binding, governor start, state.

        Idempotent between :meth:`reset` calls; :meth:`step` and
        :meth:`run` call it automatically.
        """
        global DecisionRecord
        if self._started:
            return
        self._started = True
        if self.energy.enabled:
            # Attach here (not __init__) so a reset() with a fresh board
            # re-subscribes the ledger to the board actually being run.
            self.board.set_segment_observer(self.energy.observe)
        telemetry = self.telemetry
        self.governor.bind_telemetry(telemetry)
        self.governor.bind_hostprof(self.hostprof)
        self.governor.start(self.board, self.task.budget_s)
        if telemetry.enabled:
            if DecisionRecord is None:
                from repro.telemetry.audit import DecisionRecord as record

                DecisionRecord = record
            telemetry.counter(
                "freq_mhz", self.board.now, self.board.current_opp.freq_mhz
            )
            # Pre-register the headline counters so a clean run reports
            # them at 0 (a metrics baseline must pin "no misses", not
            # silently omit the metric).
            for name in (
                "executor.jobs", "executor.misses", "executor.switches"
            ):
                telemetry.metrics.counter(name)
        self._task_globals = self.task.program.fresh_globals()

    def step(self) -> JobRecord | None:
        """Run the next pending job; None when the stream is exhausted.

        The stepping half of the run loop: a fleet session steps its
        runner once per job, and
        :class:`~repro.runtime.multitask.MultiTaskRunner` interleaves
        several runners on one board by stepping whichever releases next.
        """
        self.start()
        if self._next_index >= len(self.inputs):
            return None
        index = self._next_index
        self._next_index += 1
        arrival = self.arrival_s(index)
        if self.energy.enabled:
            # The release wait belongs to the job being waited for.
            self.energy.begin_job(index)
        telemetry = self.telemetry
        wait_from = self.board.now
        self._wait_for_arrival(arrival)
        if telemetry.enabled and self.board.now > wait_from:
            telemetry.span(
                "release.wait",
                wait_from,
                self.board.now,
                category="idle",
                args={"job": index},
            )
        assert self._task_globals is not None
        record = self._run_one_job(
            index, arrival, self.inputs[index], self._task_globals
        )
        self._records.append(record)
        if self.hostprof.enabled:
            self.hostprof.job_done()
        return record

    def result(self) -> RunResult:
        """Aggregate the jobs run so far into a :class:`RunResult`."""
        energy_by_tag = {
            tag: self.board.energy_j(tag)
            for tag in ("job", "predictor", "switch", "idle")
        }
        # Overlapped predictor energy (pipelined/parallel placements) is
        # off-timeline; report it under its own tag rather than silently
        # folding it into "predictor", so the breakdown still sums to
        # energy_j while staying attributable.
        if self._overlap_energy_j > 0.0:
            energy_by_tag["predictor_overlap"] = self._overlap_energy_j
        return RunResult(
            governor=self.governor.name,
            app=self.task.name,
            budget_s=self.task.budget_s,
            jobs=list(self._records),
            energy_j=self.board.energy_j() + self._overlap_energy_j,
            energy_by_tag=energy_by_tag,
            switch_count=self._switches,
        )

    def run(self) -> RunResult:
        """Execute every job; return the aggregated result."""
        self.start()
        while self.step() is not None:
            pass
        return self.result()

    # -- per-job orchestration -------------------------------------------------
    def _run_one_job(
        self,
        index: int,
        arrival: float,
        job_inputs: Mapping[str, Value],
        task_globals: dict,
    ) -> JobRecord:
        board = self.board
        deadline = arrival + self.task.budget_s
        start = board.now
        hp = self.hostprof

        # The job's true semantics, interpreted once.  The governor decides
        # first and its slice must see pre-job state, so the run happens on
        # an isolated fork; its final globals are committed after the job.
        if hp.enabled:
            t0 = hp.clock()
        run = self.interpreter.execute_isolated(
            self.task.program, job_inputs, task_globals
        )
        work = run.work
        if hp.enabled:
            hp.add("interp", hp.clock() - t0)
        jitter = board.cpu.jitter.sample()

        ctx = JobContext(
            index=index,
            inputs=job_inputs,
            task_globals=task_globals,
            budget_s=self.task.budget_s,
            deadline_s=deadline,
            board=board,
            charge_overheads=self.charge_predictor,
            oracle_work=work if self.governor.reads_oracle_work else None,
        )

        telemetry = self.telemetry
        decide_from = board.now
        if hp.enabled:
            t0 = hp.clock()
        predictor_time, decision, partial_exec, remaining = self._decide(
            ctx, work, jitter
        )
        if hp.enabled:
            hp.add("governor", hp.clock() - t0)
        if telemetry.enabled:
            now = board.now
            self_audited = telemetry.has_decision_for(index)
            span_args: dict = {"job": index}
            if decision is not None:
                span_args["opp_index"] = decision.opp.index
                span_args["opp_mhz"] = decision.opp.freq_mhz
            # Effective-budget breakdown (budget - slice time - p95 switch
            # estimate - certified reservation), so attribution needs no
            # side-channel.  The effective budget is the one the governor
            # audited for this job, when its record carries one.
            switch_estimate = self.governor.switch_estimate_s(ctx)
            if not math.isnan(switch_estimate):
                effective_budget = deadline - now - switch_estimate
                if self_audited:
                    audited = telemetry.decisions[-1].effective_budget_s
                    if not math.isnan(audited):
                        effective_budget = audited
                span_args.update(
                    budget_s=self.task.budget_s,
                    slice_time_s=predictor_time,
                    switch_estimate_s=switch_estimate,
                    effective_budget_s=effective_budget,
                )
                margin = self.governor.margin_value()
                if not math.isnan(margin):
                    span_args["margin"] = margin
            telemetry.span(
                "predict",
                decide_from,
                now,
                category="predictor",
                args=span_args,
            )
            # Governors that don't self-report still land in the audit
            # log, with the fields every decision has.
            if not self_audited:
                telemetry.record_decision(
                    DecisionRecord.bare(
                        job_index=index,
                        t_s=now,
                        governor=self.governor.name,
                        opp_mhz=(
                            decision.opp.freq_mhz
                            if decision is not None
                            else None
                        ),
                        predicted_time_s=(
                            decision.predicted_time_s
                            if decision is not None
                            else math.nan
                        ),
                        energy_j=board.energy_j(),
                    )
                )
        target = decision.opp if decision is not None else self._restore_opp
        self._restore_opp = None

        switch_time = 0.0
        if target is not None and target.index != board.current_opp.index:
            switch_from = board.now
            switch_time = self._switch(target)
            if telemetry.enabled and switch_time > 0:
                telemetry.span(
                    "switch",
                    switch_from,
                    board.now,
                    category="switch",
                    args={"job": index, "to_mhz": target.freq_mhz},
                )

        opp_mhz = board.current_opp.freq_mhz
        exec_from = board.now
        exec_time, mid_switch, _ = self._execute_work(
            work, jitter, remaining=remaining
        )
        end = board.now
        if telemetry.enabled:
            telemetry.span(
                "execute",
                exec_from,
                end,
                category="job",
                args={"job": index, "start_mhz": opp_mhz},
            )

        # Commit the job's state change: globals are scalars and a run
        # never adds keys, so this equals re-running against live state.
        task_globals.update(run.env.globals)
        if hp.enabled:
            t0 = hp.clock()

        record = JobRecord(
            index=index,
            arrival_s=arrival,
            start_s=start,
            end_s=end,
            deadline_s=deadline,
            opp_mhz=opp_mhz,
            exec_time_s=exec_time + partial_exec,
            predictor_time_s=predictor_time,
            switch_time_s=switch_time + mid_switch,
            predicted_time_s=(
                decision.predicted_time_s if decision is not None else math.nan
            ),
        )
        report_from = board.now
        feedback_work = self.governor.on_job_end(record, ctx)
        if feedback_work is not None and self.charge_predictor:
            # Adaptation runs in the slack after the job completes; it
            # cannot un-miss this job but can delay the next one.
            adaptation_time = board.cpu.execution_time(
                feedback_work, board.current_opp
            )
            if self.energy.enabled:
                # Post-job adaptation shares the "predictor" timeline tag
                # with decision slices; the flag disambiguates the phase.
                self.energy.begin_feedback()
                board.busy_run(adaptation_time, tag="predictor")
                self.energy.end_feedback()
            else:
                board.busy_run(adaptation_time, tag="predictor")
            record = dataclasses.replace(
                record, adaptation_time_s=adaptation_time
            )
        if telemetry.enabled:
            now = board.now
            if now > report_from:
                telemetry.span(
                    "report",
                    report_from,
                    now,
                    category="predictor",
                    args={"job": index},
                )
            # The job span closes the per-job story: the SLO watchdog
            # (repro.telemetry.watch) classifies the job off these args.
            energy_j = board.energy_j()
            missed = record.missed
            slack_s = record.slack_s
            telemetry.counter("energy_j", now, energy_j)
            telemetry.span(
                "job",
                start,
                now,
                category="job",
                args={"job": index, "missed": missed, "slack_s": slack_s},
            )
            if missed:
                telemetry.instant(
                    "deadline.miss",
                    record.end_s,
                    category="deadline",
                    args={"job": index, "late_s": -slack_s},
                )
            self._observe_job(record, missed, slack_s, energy_j)
        if hp.enabled:
            hp.add("record", hp.clock() - t0)
        return record

    def _observe_job(
        self, record: JobRecord, missed: bool, slack_s: float, energy_j: float
    ) -> None:
        """Feed the per-job metrics (telemetry enabled only)."""
        metrics = self.telemetry.metrics
        if self._job_metrics is None:
            self._job_metrics = (
                metrics.counter("executor.jobs"),
                metrics.counter("executor.misses"),
                metrics.histogram("executor.slack_s"),
                metrics.histogram("executor.exec_time_s"),
                metrics.gauge("executor.energy_j"),
            )
        jobs, misses, slack, exec_time, energy = self._job_metrics
        jobs.inc()
        if missed:
            misses.inc()
        slack.observe(slack_s)
        exec_time.observe(record.exec_time_s)
        if record.predictor_time_s > 0:
            metrics.histogram("executor.predictor_time_s").observe(
                record.predictor_time_s
            )
        if record.switch_time_s > 0:
            metrics.histogram("executor.switch_time_s").observe(
                record.switch_time_s
            )
        if record.adaptation_time_s > 0:
            metrics.histogram("executor.adaptation_time_s").observe(
                record.adaptation_time_s
            )
        # Cumulative energy as a gauge: the last write is the run total,
        # which the metrics regression gate compares across commits.
        energy.set(energy_j)
        if self._overlap_energy_j > 0:
            metrics.gauge("executor.predictor_overlap_j").set(
                self._overlap_energy_j
            )

    def _decide(
        self, ctx: JobContext, work: Work, jitter: float
    ) -> tuple[float, Decision | None, float, float]:
        """Run the governor's decision under the configured placement.

        Returns (predictor_time_charged, decision, job_seconds_already_run,
        fraction_of_job_remaining).
        """
        board = self.board
        predictive = isinstance(self.governor, PredictiveGovernor)
        if not predictive or self.placement is PredictorPlacement.SEQUENTIAL:
            before = board.now
            decision = self.governor.decide(ctx)
            self._fire_due_timers()
            return board.now - before, decision, 0.0, 1.0

        # Pipelined or parallel: the governor's own prediction step, with
        # the slice's cost landed here, off the job's timeline.
        governor: PredictiveGovernor = self.governor
        if not governor.runs_slice(ctx):
            return 0.0, None, 0.0, 1.0
        outcome = governor.analyze(ctx)
        slice_time = board.cpu.execution_time(
            outcome.slice_work, board.current_opp
        )
        predictor_time, partial, remaining = 0.0, 0.0, 1.0
        if self.charge_predictor:
            if self.placement is PredictorPlacement.PARALLEL:
                # The job starts at the old level while the slice runs.
                partial, _, remaining = self._execute_work(
                    work, jitter, max_duration=slice_time
                )
                predictor_time = slice_time
            # Pipelined, the slice ran during the previous job (no budget
            # impact); either way its energy was spent on overlapped cycles.
            overlap = board.power.power(board.current_opp, 1.0) * slice_time
            self._overlap_energy_j += overlap
            if self.energy.enabled:
                self.energy.add_overlap(overlap)
        decision = governor.conclude(ctx, outcome, governor, "")
        return predictor_time, decision, partial, remaining

    # -- mechanism helpers -------------------------------------------------------
    def _switch(self, target: OperatingPoint) -> float:
        """Perform a DVFS switch, charged or free per configuration."""
        if target.index == self.board.current_opp.index:
            return 0.0
        hp = self.hostprof
        if hp.enabled:
            t0 = hp.clock()
        self._switches += 1
        if self.charge_switch:
            latency = self.board.set_frequency(target)
        else:
            self.board.set_frequency_free(target)
            latency = 0.0
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.counter("freq_mhz", self.board.now, target.freq_mhz)
            telemetry.metrics.counter("executor.switches").inc()
        if hp.enabled:
            hp.add("switch", hp.clock() - t0)
        return latency

    def _wait_for_arrival(self, arrival: float) -> None:
        """Idle (with timers and optional fmin idling) until release time."""
        board = self.board
        gap = arrival - board.now
        if gap <= 0:
            return
        if self.idle and gap > IDLE_MIN_GAP_S:
            self._restore_opp = board.current_opp
            self._switch(board.opps.fmin)
        while board.now < arrival - _EPS:
            chunk_end = arrival
            if self._next_timer is not None:
                chunk_end = min(chunk_end, self._next_timer)
            board.idle_until(chunk_end)
            self._fire_due_timers()

    def _execute_work(
        self,
        work: Work,
        jitter: float,
        remaining: float = 1.0,
        max_duration: float | None = None,
    ) -> tuple[float, float, float]:
        """Run (part of) a job's work at the prevailing frequencies.

        Work progresses as a fraction of the whole job; a mid-job
        frequency change re-times the remaining fraction at the new
        level.  Returns (busy seconds spent, mid-job switch seconds,
        fraction of the job still remaining).

        Args:
            work: The job's total work.
            jitter: This job's timing-noise factor.
            remaining: Fraction of the job still to run (a parallel-
                placement partial execution passes its leftover here).
            max_duration: Stop after this much busy time (parallel
                placement runs the job for exactly the slice duration).
        """
        board = self.board
        spent = 0.0
        switch_spent = 0.0
        while remaining > _EPS:
            total = jitter * board.cpu.ideal_time(work, board.current_opp)
            if total <= _EPS:
                break
            time_left = remaining * total
            chunk = time_left
            if max_duration is not None:
                chunk = min(chunk, max_duration - spent)
                if chunk <= _EPS:
                    break
            if self._next_timer is not None:
                chunk = min(chunk, max(self._next_timer - board.now, _EPS))
            if self.telemetry.enabled:
                freq_mhz = board.current_opp.freq_mhz
                residency = self._residency.get(freq_mhz)
                if residency is None:
                    residency = self._residency[freq_mhz] = (
                        self.telemetry.metrics.counter(
                            f"executor.residency_s[{freq_mhz:g}]"
                        )
                    )
                residency.inc(chunk)
            board.busy_run(chunk, tag="job")
            self._window_busy_s += chunk
            spent += chunk
            remaining -= chunk / total
            switch_spent += self._fire_due_timers()
            if max_duration is not None and spent >= max_duration - _EPS:
                break
        return spent, switch_spent, max(remaining, 0.0)

    def _fire_due_timers(self) -> float:
        """Deliver any due utilization samples; returns switch time spent."""
        if self._next_timer is None or self._timer_period is None:
            return 0.0
        switch_time = 0.0
        while self.board.now >= self._next_timer - _EPS:
            utilization = min(1.0, self._window_busy_s / self._timer_period)
            target = self.governor.on_timer(self._next_timer, utilization)
            self._window_busy_s = 0.0
            self._next_timer += self._timer_period
            if target is not None and target.index != self.board.current_opp.index:
                if self.telemetry.enabled:
                    self.telemetry.instant(
                        "timer.retarget",
                        self.board.now,
                        category="governor",
                        args={
                            "utilization": utilization,
                            "to_mhz": target.freq_mhz,
                        },
                    )
                    self.telemetry.metrics.counter(
                        "executor.timer_retargets"
                    ).inc()
                switch_time += self._switch(target)
        return switch_time
