"""Offline profiler: runs an instrumented task over sample inputs.

This is the "Profile" stage of the paper's Fig. 13.  Each profiled job
executes the instrumented program with live (persisting) globals so
program state evolves exactly as it would in deployment, and records the
measured execution time at the two anchor frequencies.  Timing noise is
taken from the CPU's jitter model — profiling on real hardware sees noisy
times too, and the asymmetric training objective is designed around that.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.features.trace import ProfileSample, ProfileTrace
from repro.platform.cpu import SimulatedCpu
from repro.platform.opp import OppTable
from repro.programs.expr import Value
from repro.programs.instrument import InstrumentedProgram
from repro.programs.interpreter import Interpreter

__all__ = ["Profiler"]

InputGenerator = Iterable[Mapping[str, Value]]


class Profiler:
    """Collects (features, time) training pairs for a task.

    Attributes:
        interpreter: Semantic executor for the IR.
        cpu: Timing model (bring the jitter you expect in deployment).
        opps: Operating points; profiling anchors at ``fmin`` and ``fmax``.
    """

    def __init__(
        self,
        interpreter: Interpreter,
        cpu: SimulatedCpu,
        opps: OppTable,
    ):
        self.interpreter = interpreter
        self.cpu = cpu
        self.opps = opps

    def profile(
        self,
        instrumented: InstrumentedProgram,
        inputs: InputGenerator,
        globals_: dict[str, Value] | None = None,
    ) -> ProfileTrace:
        """Run every input through the instrumented task; return the trace.

        Args:
            instrumented: Output of the instrumenter.
            inputs: Sample job inputs, in job order (state evolves across
                them via the shared globals).
            globals_: Starting task state; fresh state by default.
        """
        program = instrumented.program
        if globals_ is None:
            globals_ = program.fresh_globals()
        trace = ProfileTrace()
        for job_inputs in inputs:
            result = self.interpreter.execute(program, job_inputs, globals_)
            trace.append(
                ProfileSample(
                    features=result.features,
                    time_fmax_s=self.cpu.execution_time(
                        result.work, self.opps.fmax
                    ),
                    time_fmin_s=self.cpu.execution_time(
                        result.work, self.opps.fmin
                    ),
                )
            )
        if len(trace) == 0:
            raise ValueError("profiling produced no samples (empty input set)")
        return trace
