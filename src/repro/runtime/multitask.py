"""Multiple non-overlapping tasks on one core (paper §4.1).

"Multiple non-overlapping tasks can be supported, though we only
considered one task in the applications we tested."  This runner
schedules several annotated tasks on the same simulated core: each task
releases jobs periodically (with an optional phase offset), jobs run to
completion in release order (non-preemptive FIFO — the tasks never
overlap), and each task brings its own governor, so two prediction-based
controllers trained on different programs coexist on one frequency
ladder.

Utilization-timer governors (interactive/ondemand) are per-CPU, not
per-task; this runner supports per-job policies only (performance,
powersave, pid, prediction, oracle) and rejects timer-driven ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.governors.base import Governor, JobContext
from repro.platform.board import Board
from repro.programs.expr import Value
from repro.programs.interpreter import Interpreter
from repro.runtime.records import JobRecord, RunResult
from repro.runtime.task import Task
from repro.telemetry.energy import NO_ENERGY_LEDGER, EnergyLedger

__all__ = ["TaskStream", "MultiTaskRunner"]

_EPS = 1e-12


@dataclass
class TaskStream:
    """One periodic task plus everything needed to run it.

    Attributes:
        task: The annotated task (budget doubles as the period).
        governor: Per-job DVFS policy for this task's jobs.
        inputs: Per-job inputs, in release order.
        offset_s: Release phase: job i arrives at ``offset + i * budget``.
            Offsetting streams by a fraction of the period keeps them
            naturally non-overlapping under light load.
    """

    task: Task
    governor: Governor
    inputs: Sequence[Mapping[str, Value]]
    offset_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.inputs:
            raise ValueError(f"stream {self.task.name!r} has no job inputs")
        if self.offset_s < 0:
            raise ValueError("offset must be non-negative")
        if self.governor.timer_period_s is not None:
            raise ValueError(
                "multi-task scheduling supports per-job governors only; "
                f"{self.governor.name!r} is utilization-timer driven"
            )

    def arrival_s(self, index: int) -> float:
        """Release time of this stream's ``index``-th job."""
        return self.offset_s + index * self.task.budget_s


@dataclass
class _StreamState:
    stream: TaskStream
    globals_: dict
    next_index: int = 0
    records: list[JobRecord] = field(default_factory=list)

    @property
    def exhausted(self) -> bool:
        return self.next_index >= len(self.stream.inputs)

    @property
    def next_arrival_s(self) -> float:
        return self.stream.arrival_s(self.next_index)


class MultiTaskRunner:
    """Runs several task streams on one board, FIFO by release time."""

    def __init__(
        self,
        board: Board,
        streams: Sequence[TaskStream],
        interpreter: Interpreter | None = None,
        energy: EnergyLedger | None = None,
    ):
        if not streams:
            raise ValueError("need at least one task stream")
        names = [s.task.name for s in streams]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate task names: {names}")
        self.board = board
        self.streams = list(streams)
        self.interpreter = interpreter if interpreter is not None else Interpreter()
        self.energy = energy if energy is not None else NO_ENERGY_LEDGER
        # Streams share one board; ledger jobs number the interleaved
        # sequence in execution order across all streams.
        self._jobs_run = 0

    def run(self) -> dict[str, RunResult]:
        """Execute every stream's jobs; returns results keyed by task name."""
        board = self.board
        if self.energy.enabled:
            board.set_segment_observer(self.energy.observe)
        states = [
            _StreamState(stream=s, globals_=s.task.program.fresh_globals())
            for s in self.streams
        ]
        for state in states:
            state.stream.governor.start(board, state.stream.task.budget_s)

        while True:
            pending = [s for s in states if not s.exhausted]
            if not pending:
                break
            # Earliest release first; FIFO among released jobs.
            state = min(pending, key=lambda s: s.next_arrival_s)
            self._run_job(state)

        results: dict[str, RunResult] = {}
        total_energy = board.energy_j()
        for state in states:
            results[state.stream.task.name] = RunResult(
                governor=state.stream.governor.name,
                app=state.stream.task.name,
                budget_s=state.stream.task.budget_s,
                jobs=state.records,
                # Whole-board energy is shared; report it on every stream
                # (splitting idle energy between tasks is arbitrary).
                energy_j=total_energy,
                energy_by_tag={
                    tag: board.energy_j(tag)
                    for tag in ("job", "predictor", "switch", "idle")
                },
                switch_count=board.switch_count,
            )
        return results

    def _run_job(self, state: _StreamState) -> None:
        board = self.board
        stream = state.stream
        index = state.next_index
        state.next_index += 1
        if self.energy.enabled:
            self.energy.begin_job(self._jobs_run)
        self._jobs_run += 1
        arrival = stream.arrival_s(index)
        board.idle_until(arrival)
        start = board.now
        deadline = arrival + stream.task.budget_s
        job_inputs = stream.inputs[index]

        # One interpretation per job, on an isolated fork: the governor
        # decides against pre-job state, then the run's globals commit.
        run = self.interpreter.execute_isolated(
            stream.task.program, job_inputs, state.globals_
        )
        ctx = JobContext(
            index=index,
            inputs=job_inputs,
            task_globals=state.globals_,
            budget_s=stream.task.budget_s,
            deadline_s=deadline,
            board=board,
            oracle_work=run.work if stream.governor.reads_oracle_work else None,
        )
        before = board.now
        decision = stream.governor.decide(ctx)
        predictor_time = board.now - before

        switch_time = 0.0
        if decision is not None and (
            decision.opp.index != board.current_opp.index
        ):
            switch_time = board.set_frequency(decision.opp)

        opp_mhz = board.current_opp.freq_mhz
        exec_time = board.execute(run.work)
        state.globals_.update(run.env.globals)

        record = JobRecord(
            index=index,
            arrival_s=arrival,
            start_s=start,
            end_s=board.now,
            deadline_s=deadline,
            opp_mhz=opp_mhz,
            exec_time_s=exec_time,
            predictor_time_s=predictor_time,
            switch_time_s=switch_time,
            predicted_time_s=(
                decision.predicted_time_s
                if decision is not None
                else float("nan")
            ),
        )
        state.records.append(record)
        stream.governor.on_job_end(record, ctx)
