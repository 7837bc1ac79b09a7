"""The node-by-node tree-walking interpreter, kept as a differential reference.

This is the statement interpreter the package used before programs were
compiled to Python code: a dict dispatch on the node class, one handler
per statement type, expressions through :meth:`Expr.evaluate`, and
variables through an :class:`~repro.programs.env.Environment`.
``tests/programs/test_compiled_differential.py`` runs it beside
:class:`repro.programs.interpreter.Interpreter` and requires identical
Work, features and final globals.
"""

from __future__ import annotations

from typing import Mapping

from repro.platform.cpu import Work
from repro.programs.env import Environment
from repro.programs.expr import Value
from repro.programs.interpreter import ExecutionResult, RawFeatures
from repro.programs.ir import (
    BRANCH_COST,
    CALL_DISPATCH_COST,
    COUNTER_COST,
    LOOP_ITER_COST,
    Assign,
    Block,
    Hint,
    If,
    IndirectCall,
    Loop,
    Program,
    Seq,
    Stmt,
    While,
)

__all__ = ["TreeWalkingInterpreter"]


class TreeWalkingInterpreter:
    """Executes statement trees.


    Attributes:
        cycles_per_instruction: CPI of the modelled core (A7 in-order: ~1).
        mem_seconds_per_ref: Seconds of non-overlapped memory time per
            memory reference (builds the ``T_mem`` term of the DVFS model).
    """

    def __init__(
        self,
        cycles_per_instruction: float = 1.0,
        mem_seconds_per_ref: float = 80e-9,
    ):
        if cycles_per_instruction <= 0:
            raise ValueError("cycles_per_instruction must be positive")
        if mem_seconds_per_ref < 0:
            raise ValueError("mem_seconds_per_ref must be non-negative")
        self.cycles_per_instruction = cycles_per_instruction
        self.mem_seconds_per_ref = mem_seconds_per_ref
        # Node dispatch by exact class.  An isinstance chain pays an
        # ABCMeta.__instancecheck__ per candidate type per node executed
        # (the top hotspot in host profiles); one dict lookup replaces
        # the whole chain.  Subclasses of IR nodes resolve through
        # ``_resolve`` (MRO walk) once and are memoized here.
        self._dispatch = {
            Block: self._run_block,
            Assign: self._run_assign,
            Seq: self._run_seq,
            If: self._run_if,
            Loop: self._run_loop,
            While: self._run_while,
            Hint: self._run_hint,
            IndirectCall: self._run_call,
        }

    def execute(
        self,
        program: Program,
        inputs: Mapping[str, Value],
        globals_: dict[str, Value] | None = None,
    ) -> ExecutionResult:
        """Run one job of ``program`` with the given inputs.

        Args:
            program: The task to execute.
            inputs: Per-job input values.
            globals_: Persistent global state, mutated in place.  Pass the
                same dict across jobs to model evolving program state; by
                default each call gets fresh globals.

        Returns:
            The work performed, features counted, and the final environment.
        """
        if globals_ is None:
            globals_ = program.fresh_globals()
        env = Environment(inputs, globals_)
        features = RawFeatures()
        state = _Accumulator()
        self._run(program.body, env, features, state)
        work = Work(
            cycles=state.instructions * self.cycles_per_instruction,
            mem_time_s=state.mem_refs * self.mem_seconds_per_ref,
        )
        return ExecutionResult(work=work, features=features, env=env)

    def execute_isolated(
        self,
        program: Program,
        inputs: Mapping[str, Value],
        globals_: dict[str, Value],
    ) -> ExecutionResult:
        """Run with copy-on-fork globals: writes do not escape.

        This is how prediction slices execute (paper §3.2): the slice reads
        live program state but cannot corrupt it.
        """
        env = Environment(inputs, globals_).fork_isolated()
        features = RawFeatures()
        state = _Accumulator()
        self._run(program.body, env, features, state)
        work = Work(
            cycles=state.instructions * self.cycles_per_instruction,
            mem_time_s=state.mem_refs * self.mem_seconds_per_ref,
        )
        return ExecutionResult(work=work, features=features, env=env)

    # -- dispatch -----------------------------------------------------------
    def _resolve(self, cls: type):
        """Handler for a statement subclass, memoized into the table."""
        for base in cls.__mro__[1:]:
            handler = self._dispatch.get(base)
            if handler is not None:
                self._dispatch[cls] = handler
                return handler
        raise TypeError(f"unknown statement type {cls.__name__}")

    def _run(
        self,
        stmt: Stmt,
        env: Environment,
        features: RawFeatures,
        state: "_Accumulator",
    ) -> None:
        handler = self._dispatch.get(stmt.__class__) or self._resolve(
            stmt.__class__
        )
        handler(stmt, env, features, state)

    def _run_block(self, stmt, env, features, state) -> None:
        state.instructions += stmt.instructions
        state.mem_refs += stmt.mem_refs

    def _run_assign(self, stmt, env, features, state) -> None:
        state.instructions += stmt.cost
        env.write(stmt.target, stmt.expr.evaluate(env))

    def _run_seq(self, stmt, env, features, state) -> None:
        dispatch = self._dispatch
        for child in stmt.stmts:
            handler = dispatch.get(child.__class__) or self._resolve(
                child.__class__
            )
            handler(child, env, features, state)

    def _run_if(self, stmt, env, features, state) -> None:
        state.instructions += BRANCH_COST
        taken = bool(stmt.cond.evaluate(env))
        if taken:
            if stmt.counted:
                state.instructions += COUNTER_COST
                features.bump(stmt.site)
            self._run(stmt.then, env, features, state)
        elif stmt.orelse is not None:
            self._run(stmt.orelse, env, features, state)

    def _run_loop(self, stmt, env, features, state) -> None:
        trips = int(stmt.count.evaluate(env))
        trips = max(0, min(trips, stmt.max_trips))
        if stmt.counted:
            state.instructions += COUNTER_COST
            features.bump(stmt.site, trips)
        if stmt.elide_body:
            return
        body = stmt.body
        handler = self._dispatch.get(body.__class__) or self._resolve(
            body.__class__
        )
        loop_var = stmt.loop_var
        if loop_var is None:
            for _ in range(trips):
                state.instructions += LOOP_ITER_COST
                handler(body, env, features, state)
        else:
            for i in range(trips):
                state.instructions += LOOP_ITER_COST
                env.write(loop_var, i)
                handler(body, env, features, state)

    def _run_while(self, stmt, env, features, state) -> None:
        body = stmt.body
        handler = self._dispatch.get(body.__class__) or self._resolve(
            body.__class__
        )
        cond = stmt.cond
        trips = 0
        while trips < stmt.max_trips:
            state.instructions += BRANCH_COST  # the condition check
            if not cond.evaluate(env):
                break
            state.instructions += LOOP_ITER_COST
            handler(body, env, features, state)
            trips += 1
        if stmt.counted:
            state.instructions += COUNTER_COST
            features.bump(stmt.site, trips)

    def _run_hint(self, stmt, env, features, state) -> None:
        state.instructions += stmt.cost
        if stmt.counted:
            state.instructions += COUNTER_COST
            features.set_value(stmt.site, float(stmt.expr.evaluate(env)))

    def _run_call(self, stmt, env, features, state) -> None:
        state.instructions += CALL_DISPATCH_COST
        address = int(stmt.target.evaluate(env))
        if stmt.counted:
            state.instructions += COUNTER_COST
            features.record_call(stmt.site, address)
        callee = stmt.table.get(address, stmt.default)
        if callee is not None:
            self._run(callee, env, features, state)


class _Accumulator:
    """Mutable instruction/memory tally for one execution."""

    __slots__ = ("instructions", "mem_refs")

    def __init__(self):
        self.instructions = 0.0
        self.mem_refs = 0.0
