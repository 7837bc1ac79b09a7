"""Multiple non-overlapping tasks on one core (paper §4.1).

"Multiple non-overlapping tasks can be supported, though we only
considered one task in the applications we tested."  This runner
schedules several annotated tasks on the same simulated core: each task
releases jobs periodically (with an optional phase offset), jobs run to
completion in release order (non-preemptive FIFO — the tasks never
overlap), and each task brings its own governor, so two prediction-based
controllers trained on different programs coexist on one frequency
ladder.

Each stream is one :class:`~repro.runtime.executor.TaskLoopRunner` on
the shared board, fed the stream's release times; this runner only
chooses which of them steps next, so every job takes the same per-job
step (interpret, decide, switch, execute, report) as a single-task run.

Utilization-timer governors (interactive/ondemand) are per-CPU, not
per-task; this runner supports per-job policies only (performance,
powersave, pid, prediction, oracle) and rejects timer-driven ones.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.governors.base import Governor
from repro.platform.board import Board
from repro.programs.expr import Value
from repro.programs.interpreter import Interpreter
from repro.runtime.executor import TaskLoopRunner
from repro.runtime.records import RunResult
from repro.runtime.task import Task

__all__ = ["TaskStream", "MultiTaskRunner"]


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


class MultiTaskRunner:
    """Runs several task streams on one board, FIFO by release time."""

    def __init__(self, board: Board, streams: Sequence[TaskStream]):
        if not streams:
            raise ValueError("need at least one task stream")
        names = [s.task.name for s in streams]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate task names: {names}")
        self.board = board
        self.streams = list(streams)
        self.interpreter = Interpreter()

    def run(self) -> dict[str, RunResult]:
        """Execute every stream's jobs; returns results keyed by task name."""
        runners = [
            TaskLoopRunner(
                board=self.board,
                task=stream.task,
                governor=stream.governor,
                inputs=stream.inputs,
                interpreter=self.interpreter,
                arrivals=[
                    stream.arrival_s(i) for i in range(len(stream.inputs))
                ],
            )
            for stream in self.streams
        ]
        for runner in runners:
            runner.start()
        pending = runners
        while pending:
            # Earliest release first; ties go to the earlier stream.
            min(pending, key=TaskLoopRunner.next_arrival_s).step()
            pending = [runner for runner in pending if runner.jobs_remaining]
        # A runner's energy is the shared board's, so every stream
        # reports the whole board's (splitting idle energy between tasks
        # is arbitrary); its switch count covers its own switches only.
        return {
            runner.task.name: dataclasses.replace(
                runner.result(), switch_count=self.board.switch_count
            )
            for runner in runners
        }
