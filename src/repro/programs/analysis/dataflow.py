"""Generic forward/backward dataflow over the structured statement tree.

The task IR has no flat CFG — control flow is the tree itself — so the
engine is a *structural* worklist: straight-line code folds transfer
functions, branches fork and join the abstract state, and loops iterate
their body's transfer to a fixpoint (with widening after a configurable
number of rounds, so infinite-height domains like intervals terminate).

A concrete analysis subclasses :class:`DataflowPass` and provides the
lattice (``join``/``widen``/``equal``) plus leaf transfer functions; the
:class:`DataflowEngine` owns traversal order, loop fixpoints, and the
per-node state record that linters query afterwards
(:meth:`DataflowEngine.state_at`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Generic, TypeVar

from repro.programs.ir import (
    Assign,
    Block,
    Hint,
    If,
    IndirectCall,
    Loop,
    Seq,
    Stmt,
)

__all__ = ["DataflowPass", "DataflowEngine", "FixpointDiverged"]

S = TypeVar("S")


class FixpointDiverged(RuntimeError):
    """A loop fixpoint failed to stabilise even after widening.

    Raised only when a pass's ``widen`` does not actually enforce
    convergence — a bug in the pass, not in the analyzed program.
    """


class DataflowPass(ABC, Generic[S]):
    """Lattice + transfer functions of one analysis.

    Attributes:
        name: Pass identifier (used in diagnostics).
        direction: "forward" (states flow with execution) or "backward"
            (states flow against it, e.g. liveness).
        widen_after: Loop-fixpoint rounds before ``widen`` replaces
            ``join`` on the back edge.
        max_rounds: Hard cap on fixpoint rounds; exceeding it raises
            :class:`FixpointDiverged`.
    """

    name: str = "dataflow"
    direction: str = "forward"
    widen_after: int = 8
    max_rounds: int = 128

    # -- lattice -----------------------------------------------------------
    @abstractmethod
    def join(self, a: S, b: S) -> S:
        """Least upper bound of two states."""

    def widen(self, older: S, newer: S) -> S:
        """Accelerated join for loop back edges (defaults to ``join``).

        Passes over infinite-height domains (intervals) must override
        this so unstable components jump to top and fixpoints terminate.
        """
        return self.join(older, newer)

    def equal(self, a: S, b: S) -> bool:
        return a == b

    # -- leaf transfers (identity by default) ------------------------------
    def transfer_block(self, stmt: Block, state: S) -> S:
        return state

    def transfer_assign(self, stmt: Assign, state: S) -> S:
        return state

    def transfer_hint(self, stmt: Hint, state: S) -> S:
        return state

    # -- control-node hooks ------------------------------------------------
    def transfer_branch(self, stmt: If, state: S) -> S:
        """Effect of evaluating a branch condition (reads only)."""
        return state

    def transfer_loop_header(self, stmt: Loop, state: S) -> S:
        """Effect of evaluating a counted loop's trip-count expression."""
        return state

    def transfer_call_header(self, stmt: IndirectCall, state: S) -> S:
        """Effect of evaluating an indirect call's target address."""
        return state

    def bind_loop_var(self, stmt: Loop, state: S) -> S:
        """State at the top of each iteration (loop variable bound)."""
        return state


class DataflowEngine(Generic[S]):
    """Runs one :class:`DataflowPass` over a statement tree.

    The engine records, for every node, the join of all abstract states
    that reached it (entry states for forward passes, exit states for
    backward ones).  Loop bodies are visited repeatedly during fixpoint
    iteration; because recorded states only ever grow toward the
    invariant, the final record *is* the loop invariant at that node.
    """

    def __init__(self, pass_: DataflowPass[S]):
        self.pass_ = pass_
        self._states: dict[int, S] = {}

    # -- public API --------------------------------------------------------
    def run(self, root: Stmt, boundary: S) -> S:
        """Propagate ``boundary`` through ``root``; returns the exit state
        (forward) or entry state (backward)."""
        self._states.clear()
        if self.pass_.direction == "backward":
            return self._bwd(root, boundary)
        return self._fwd(root, boundary)

    def state_at(self, stmt: Stmt) -> S | None:
        """The recorded state at a node (None if the node is unreachable,
        e.g. inside a call-table entry the analysis proved dead)."""
        return self._states.get(id(stmt))

    # -- recording ---------------------------------------------------------
    def _record(self, stmt: Stmt, state: S) -> None:
        seen = self._states.get(id(stmt))
        self._states[id(stmt)] = (
            state if seen is None else self.pass_.join(seen, state)
        )

    # -- forward traversal -------------------------------------------------
    def _fwd(self, stmt: Stmt, state: S) -> S:
        p = self.pass_
        self._record(stmt, state)
        if isinstance(stmt, Block):
            return p.transfer_block(stmt, state)
        if isinstance(stmt, Assign):
            return p.transfer_assign(stmt, state)
        if isinstance(stmt, Hint):
            return p.transfer_hint(stmt, state)
        if isinstance(stmt, Seq):
            for child in stmt.stmts:
                state = self._fwd(child, state)
            return state
        if isinstance(stmt, If):
            entry = p.transfer_branch(stmt, state)
            taken = self._fwd(stmt.then, entry)
            fallthrough = (
                self._fwd(stmt.orelse, entry)
                if stmt.orelse is not None
                else entry
            )
            return p.join(taken, fallthrough)
        if isinstance(stmt, Loop):
            entry = p.transfer_loop_header(stmt, state)
            if stmt.elide_body:
                # Hoisted counter (Fig. 8): the trip count is recorded but
                # no iteration executes.
                return entry
            return self._loop_fixpoint(
                entry,
                lambda s: self._fwd(stmt.body, p.bind_loop_var(stmt, s)),
            )
        if isinstance(stmt, IndirectCall):
            entry = p.transfer_call_header(stmt, state)
            outs = [self._fwd(callee, entry) for callee in stmt.table.values()]
            # An address outside the table runs `default`; with no default
            # it is a no-op, so the entry state itself is a possible exit.
            outs.append(
                self._fwd(stmt.default, entry)
                if stmt.default is not None
                else entry
            )
            merged = outs[0]
            for out in outs[1:]:
                merged = p.join(merged, out)
            return merged
        raise TypeError(f"unknown statement type {type(stmt).__name__}")

    def _loop_fixpoint(self, entry: S, body_transfer) -> S:
        """Iterate ``invariant = entry ⊔ body(invariant)`` to a fixpoint.

        ``entry`` stays in the invariant (the zero-iteration path), and
        after :attr:`DataflowPass.widen_after` rounds the back edge uses
        ``widen`` so infinite-ascent domains terminate.
        """
        p = self.pass_
        invariant = entry
        for round_ in range(p.max_rounds):
            nxt = p.join(entry, body_transfer(invariant))
            if p.equal(nxt, invariant):
                return invariant
            invariant = (
                p.widen(invariant, nxt) if round_ >= p.widen_after else nxt
            )
        raise FixpointDiverged(
            f"{p.name}: loop fixpoint did not stabilise within "
            f"{p.max_rounds} rounds (widening is not convergent)"
        )

    # -- backward traversal ------------------------------------------------
    def _bwd(self, stmt: Stmt, state: S) -> S:
        p = self.pass_
        self._record(stmt, state)
        if isinstance(stmt, Block):
            return p.transfer_block(stmt, state)
        if isinstance(stmt, Assign):
            return p.transfer_assign(stmt, state)
        if isinstance(stmt, Hint):
            return p.transfer_hint(stmt, state)
        if isinstance(stmt, Seq):
            for child in reversed(stmt.stmts):
                state = self._bwd(child, state)
            return state
        if isinstance(stmt, If):
            taken = self._bwd(stmt.then, state)
            fallthrough = (
                self._bwd(stmt.orelse, state)
                if stmt.orelse is not None
                else state
            )
            return p.transfer_branch(stmt, p.join(taken, fallthrough))
        if isinstance(stmt, Loop):
            if stmt.elide_body:
                return p.transfer_loop_header(stmt, state)
            exit_ = self._loop_fixpoint(
                state,
                lambda s: p.bind_loop_var(stmt, self._bwd(stmt.body, s)),
            )
            return p.transfer_loop_header(stmt, exit_)
        if isinstance(stmt, IndirectCall):
            outs = [self._bwd(callee, state) for callee in stmt.table.values()]
            outs.append(
                self._bwd(stmt.default, state)
                if stmt.default is not None
                else state
            )
            merged = outs[0]
            for out in outs[1:]:
                merged = p.join(merged, out)
            return p.transfer_call_header(stmt, merged)
        raise TypeError(f"unknown statement type {type(stmt).__name__}")
