"""Program slicing: extract the minimal code that computes the features.

Given an instrumented program and the set of feature sites the trained
model actually uses (non-zero coefficients), the slicer produces a
*prediction slice* — a program that:

- keeps the control skeleton needed to evaluate the selected features;
- keeps the scalar assignments those control expressions transitively
  depend on (name-based dependence analysis, per the paper's approximate
  slicer; this IR has no aliasing so name-based is also exact);
- drops every compute :class:`~repro.programs.ir.Block` — the source of
  nearly all execution time;
- hoists counted loops whose bodies sliced away entirely: the iteration
  count is recorded without running any iterations (the paper's
  ``feature[1] += n`` transformation, Fig. 8).

The slice is meant to be run with isolated globals
(:meth:`repro.programs.interpreter.Interpreter.execute_isolated`) so its
writes cannot corrupt task state (§3.2 side-effect rule).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.programs.instrument import InstrumentedProgram
from repro.programs.ir import (
    Assign,
    Block,
    Hint,
    If,
    IndirectCall,
    Loop,
    Program,
    Seq,
    Stmt,
    walk,
)

__all__ = ["PredictionSlice", "Slicer"]

_EMPTY = Seq(())


def _is_empty(stmt: Stmt) -> bool:
    return isinstance(stmt, Seq) and not stmt.stmts


@dataclass(frozen=True)
class PredictionSlice:
    """The output of slicing.

    Attributes:
        program: The runnable slice (counts only the needed sites).
        needed_sites: Site labels the slice computes.
        relevant_vars: Variables the dependence analysis retained.
    """

    program: Program
    needed_sites: frozenset[str]
    relevant_vars: frozenset[str]


class Slicer:
    """Backward slicer over the structured IR.

    Attributes:
        marshal_base_instr: Fixed instruction cost prepended to non-trivial
            slices, modelling the slice's side-effect protection: taking
            local copies of the globals and by-reference arguments it
            reads (paper §3.2).  Zero by default — the pipeline sets it.
        marshal_per_var_instr: Additional copy cost per retained variable.
    """

    def __init__(
        self,
        marshal_base_instr: float = 0.0,
        marshal_per_var_instr: float = 0.0,
    ):
        if marshal_base_instr < 0 or marshal_per_var_instr < 0:
            raise ValueError("marshal costs must be non-negative")
        self.marshal_base_instr = marshal_base_instr
        self.marshal_per_var_instr = marshal_per_var_instr

    def slice(
        self,
        instrumented: InstrumentedProgram,
        needed_sites: set[str] | frozenset[str] | None = None,
        prune: bool = True,
    ) -> PredictionSlice:
        """Produce the prediction slice for ``needed_sites``.

        Args:
            instrumented: The instrumented program (from
                :class:`~repro.programs.instrument.Instrumenter`).
            needed_sites: Feature sites the execution-time model uses.
                ``None`` keeps every instrumented site.
            prune: Apply the dependence analysis and drop statements the
                needed sites do not depend on.  ``False`` keeps the whole
                instrumented body — the "no slicing" ablation, where the
                predictor measures features by re-running the entire
                program (marshalling cost included) — which is only
                meaningful with every site kept.

        Raises:
            KeyError: If a requested site does not exist in the program.
        """
        all_sites = set(instrumented.site_labels)
        if needed_sites is None:
            needed = set(all_sites)
        else:
            unknown = set(needed_sites) - all_sites
            if unknown:
                raise KeyError(f"unknown feature sites: {sorted(unknown)}")
            needed = set(needed_sites)

        body = instrumented.program.body
        relevant = self._relevant_variables(body, needed)
        sliced = self._slice_stmt(body, needed, relevant) if prune else body
        marshal = self.marshal_base_instr + self.marshal_per_var_instr * len(
            relevant
        )
        if marshal > 0 and needed:
            sliced = Seq(
                [Block(marshal, mem_refs=marshal / 400.0, name="slice_marshal"),
                 sliced]
            )
        program = Program(
            name=f"{instrumented.program.name}_slice",
            body=sliced,
            globals_init=dict(instrumented.program.globals_init),
        )
        return PredictionSlice(
            program=program,
            needed_sites=frozenset(needed),
            relevant_vars=frozenset(relevant),
        )

    # -- dependence analysis ------------------------------------------------
    def _relevant_variables(self, body: Stmt, needed: set[str]) -> set[str]:
        """Fixpoint of name-based data + control dependence.

        Starts from the variables read by the needed sites' control
        expressions; repeatedly adds (a) the right-hand-side variables of
        any assignment to a relevant variable, and (b) the control
        expressions of any node that must be kept to reach a kept node
        (control dependence).
        """
        relevant: set[str] = set()
        for node in walk(body):
            if getattr(node, "site", None) in needed:
                relevant |= self._control_vars(node)
        while True:
            kept = self._keep_set(body, needed, relevant)
            grown = set(relevant)
            for node in walk(body):
                if id(node) not in kept:
                    continue
                if isinstance(node, Assign) and node.target in relevant:
                    grown |= node.expr.variables()
                if isinstance(node, (If, Loop, IndirectCall, Hint)):
                    grown |= self._control_vars(node)
            if grown == relevant:
                return relevant
            relevant = grown

    @staticmethod
    def _control_vars(node: Stmt) -> set[str]:
        if isinstance(node, If):
            return set(node.cond.variables())
        if isinstance(node, Loop):
            return set(node.count.variables())
        if isinstance(node, IndirectCall):
            return set(node.target.variables())
        if isinstance(node, Hint):
            return set(node.expr.variables())
        return set()

    def _keep_set(
        self, body: Stmt, needed: set[str], relevant: set[str]
    ) -> set[int]:
        """ids of nodes that survive slicing under the current relevant set."""
        kept: set[int] = set()

        def visit(stmt: Stmt) -> bool:
            keep = False
            for child in stmt.children():
                if visit(child):
                    keep = True
            if isinstance(stmt, Assign) and stmt.target in relevant:
                keep = True
            if getattr(stmt, "site", None) in needed:
                keep = True
            if keep:
                kept.add(id(stmt))
            return keep

        visit(body)
        return kept

    # -- tree reconstruction --------------------------------------------------
    def _slice_stmt(
        self, stmt: Stmt, needed: set[str], relevant: set[str]
    ) -> Stmt:
        if isinstance(stmt, Block):
            return _EMPTY
        if isinstance(stmt, Assign):
            return stmt if stmt.target in relevant else _EMPTY
        if isinstance(stmt, Hint):
            if stmt.site in needed:
                return replace(stmt, counted=True)
            return _EMPTY
        if isinstance(stmt, Seq):
            parts = [
                sliced
                for child in stmt.stmts
                if not _is_empty(sliced := self._slice_stmt(child, needed, relevant))
            ]
            if not parts:
                return _EMPTY
            if len(parts) == 1:
                return parts[0]
            return Seq(parts)
        if isinstance(stmt, If):
            then = self._slice_stmt(stmt.then, needed, relevant)
            orelse = (
                None
                if stmt.orelse is None
                else self._slice_stmt(stmt.orelse, needed, relevant)
            )
            if orelse is not None and _is_empty(orelse):
                orelse = None
            is_needed = stmt.site in needed
            if not is_needed and _is_empty(then) and orelse is None:
                return _EMPTY
            return replace(stmt, counted=is_needed, then=then, orelse=orelse)
        if isinstance(stmt, Loop):
            body = self._slice_stmt(stmt.body, needed, relevant)
            is_needed = stmt.site in needed
            loop_var = stmt.loop_var if stmt.loop_var in relevant else None
            if _is_empty(body) and loop_var is None:
                if not is_needed:
                    return _EMPTY
                # Hoist: record the trip count without iterating (Fig. 8).
                return replace(
                    stmt,
                    counted=True,
                    body=_EMPTY,
                    loop_var=None,
                    elide_body=True,
                )
            return replace(
                stmt,
                counted=is_needed,
                body=body,
                loop_var=loop_var,
                elide_body=False,
            )
        if isinstance(stmt, IndirectCall):
            is_needed = stmt.site in needed
            table = {}
            for addr, callee in stmt.table.items():
                sliced = self._slice_stmt(callee, needed, relevant)
                if not _is_empty(sliced):
                    table[addr] = sliced
            default = (
                None
                if stmt.default is None
                else self._slice_stmt(stmt.default, needed, relevant)
            )
            if default is not None and _is_empty(default):
                default = None
            if not is_needed and not table and default is None:
                return _EMPTY
            return replace(
                stmt, counted=is_needed, table=table, default=default
            )
        raise TypeError(f"unknown statement type {type(stmt).__name__}")
