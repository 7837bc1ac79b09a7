"""Reaching definitions and liveness on the dataflow engine.

Reaching definitions answer "which assignments can have produced the
value read here?" — the approximation-hazard linter uses an empty answer
as proof that slicing (or a typo) dropped a definition the kept code
still reads.  Liveness answers "is this value read later?" — a retained
assignment whose target is dead is wasted slice time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.programs.analysis.dataflow import DataflowEngine, DataflowPass
from repro.programs.ir import (
    Assign,
    Hint,
    If,
    IndirectCall,
    Loop,
    Program,
    Stmt,
    walk,
)

__all__ = [
    "INPUT_DEF",
    "GLOBAL_DEF",
    "LOOP_VAR_DEF",
    "ReachingDefinitions",
    "ReachingState",
    "LiveVariables",
    "reaching_definitions",
    "live_variables",
    "read_variables",
]

#: Pseudo-definition tokens for names bound outside the statement tree.
INPUT_DEF = "<input>"
GLOBAL_DEF = "<global>"
LOOP_VAR_DEF = "<loop-var>"

# The state is an immutable mapping var -> frozenset of definition
# tokens; a missing var has *no* reaching definition (reads of it would
# fault at run time).
ReachingState = tuple  # sorted tuple of (name, frozenset) pairs


def _freeze(mapping: dict[str, frozenset[str]]) -> ReachingState:
    return tuple(sorted(mapping.items()))


def _thaw(state: ReachingState) -> dict[str, frozenset[str]]:
    return dict(state)


def read_variables(stmt: Stmt) -> frozenset[str]:
    """Variables a single node reads directly (not its children)."""
    if isinstance(stmt, Assign):
        return stmt.expr.variables()
    if isinstance(stmt, If):
        return stmt.cond.variables()
    if isinstance(stmt, Loop):
        return stmt.count.variables()
    if isinstance(stmt, IndirectCall):
        return stmt.target.variables()
    if isinstance(stmt, Hint):
        return stmt.expr.variables()
    return frozenset()


class ReachingDefinitions(DataflowPass[ReachingState]):
    """Forward may-analysis: var -> set of definitions that may reach.

    Definition tokens are ``"<name>@<pre-order index>"`` for Assigns and
    the pseudo-tokens above for inputs, globals, and loop variables, so
    diagnostics can name the exact statement that defined a value.
    """

    name = "reaching"
    direction = "forward"

    def __init__(self, root: Stmt):
        # Stable statement labels: pre-order position in the tree.
        self._labels = {id(node): i for i, node in enumerate(walk(root))}

    def boundary(
        self, program: Program, input_names: frozenset[str] | None = None
    ) -> ReachingState:
        """Entry state: globals and declared inputs are defined."""
        entry: dict[str, frozenset[str]] = {
            name: frozenset({GLOBAL_DEF}) for name in program.globals_init
        }
        for name in input_names or ():
            entry[name] = entry.get(name, frozenset()) | {INPUT_DEF}
        return _freeze(entry)

    def join(self, a: ReachingState, b: ReachingState) -> ReachingState:
        if a == b:
            return a
        merged = _thaw(a)
        for name, defs in b:
            merged[name] = merged.get(name, frozenset()) | defs
        return _freeze(merged)

    def transfer_assign(self, stmt: Assign, state: ReachingState):
        updated = _thaw(state)
        updated[stmt.target] = frozenset(
            {f"{stmt.target}@{self._labels[id(stmt)]}"}
        )
        return _freeze(updated)

    def bind_loop_var(self, stmt: Loop, state: ReachingState):
        if stmt.loop_var is None:
            return state
        updated = _thaw(state)
        updated[stmt.loop_var] = frozenset({LOOP_VAR_DEF})
        return _freeze(updated)


def reaching_definitions(
    program: Program, input_names: frozenset[str] | None = None
) -> DataflowEngine[ReachingState]:
    """Run reaching definitions; returns the engine for per-node queries."""
    pass_ = ReachingDefinitions(program.body)
    engine = DataflowEngine(pass_)
    engine.run(program.body, pass_.boundary(program, input_names))
    return engine


class LiveVariables(DataflowPass[frozenset]):
    """Backward may-analysis: the set of variables read later."""

    name = "liveness"
    direction = "backward"

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def transfer_assign(self, stmt: Assign, live: frozenset) -> frozenset:
        # Whether or not the target is live, the RHS is evaluated (the
        # interpreter has no dead-store elimination), so its reads count.
        return (live - {stmt.target}) | stmt.expr.variables()

    def transfer_hint(self, stmt: Hint, live: frozenset) -> frozenset:
        return live | stmt.expr.variables()

    def transfer_branch(self, stmt: If, live: frozenset) -> frozenset:
        return live | stmt.cond.variables()

    def transfer_loop_header(self, stmt: Loop, live: frozenset) -> frozenset:
        return live | stmt.count.variables()

    def transfer_call_header(
        self, stmt: IndirectCall, live: frozenset
    ) -> frozenset:
        return live | stmt.target.variables()

    def bind_loop_var(self, stmt: Loop, live: frozenset) -> frozenset:
        if stmt.loop_var is None:
            return live
        return live - {stmt.loop_var}


@dataclass(frozen=True)
class LivenessResult:
    """Engine plus the computed entry set, for linter queries."""

    engine: DataflowEngine
    live_at_entry: frozenset[str]

    def live_after(self, stmt: Stmt) -> frozenset[str] | None:
        """Variables live *after* a node (the backward-recorded state)."""
        return self.engine.state_at(stmt)


def live_variables(
    program: Program, live_at_exit: frozenset[str] | None = None
) -> LivenessResult:
    """Run liveness backward from ``live_at_exit``.

    By default the task globals are live at exit: they persist across
    jobs, so a write to them is observable even at program end.
    """
    if live_at_exit is None:
        live_at_exit = frozenset(program.globals_init)
    engine = DataflowEngine(LiveVariables())
    entry = engine.run(program.body, frozenset(live_at_exit))
    return LivenessResult(engine=engine, live_at_entry=entry)
