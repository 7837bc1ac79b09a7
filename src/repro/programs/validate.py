"""Structural validation of task programs.

Run :func:`validate_program` once when a workload is constructed; it
catches the mistakes that would otherwise surface as confusing behaviour
deep inside a simulation (aliased feature sites, unbound variables,
self-referential trees).
"""

from __future__ import annotations

from typing import Iterable

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
)

__all__ = ["validate_program", "static_instruction_bound"]


def validate_program(
    program: Program, inputs: Iterable[str] | None = None
) -> None:
    """Raise ``ValueError`` on structurally invalid programs.

    Checks:
    - control-site labels are unique;
    - the statement tree is acyclic (no node is its own ancestor);
    - when ``inputs`` names the program's declared inputs, every variable
      read is an input, a global, a loop variable, or assigned somewhere
      in the tree — anything else is a typo.  Without ``inputs`` the
      check stays lenient (any otherwise-unbound read could be an input).
    """
    seen_sites: set[str] = set()
    on_path: set[int] = set()

    assigned: set[str] = set()
    read: set[str] = set()

    def visit(stmt: Stmt) -> None:
        if id(stmt) in on_path:
            raise ValueError(
                f"cycle in statement tree of program {program.name!r}"
            )
        on_path.add(id(stmt))
        site = getattr(stmt, "site", None)
        if site is not None:
            if site in seen_sites:
                raise ValueError(
                    f"duplicate control site {site!r} in {program.name!r}"
                )
            seen_sites.add(site)
        if isinstance(stmt, Assign):
            assigned.add(stmt.target)
            read.update(stmt.expr.variables())
        elif isinstance(stmt, If):
            read.update(stmt.cond.variables())
        elif isinstance(stmt, Loop):
            read.update(stmt.count.variables())
            if stmt.loop_var is not None:
                assigned.add(stmt.loop_var)
        elif isinstance(stmt, IndirectCall):
            read.update(stmt.target.variables())
        elif isinstance(stmt, Hint):
            read.update(stmt.expr.variables())
        for child in stmt.children():
            visit(child)
        on_path.discard(id(stmt))

    visit(program.body)

    if inputs is not None:
        bound = (
            assigned | set(inputs) | set(program.globals_init)
        )
        unbound = sorted(read - bound)
        if unbound:
            raise ValueError(
                f"program {program.name!r} reads unbound variable(s) "
                f"{unbound}: neither declared inputs, globals, loop "
                "variables, nor assigned anywhere"
            )


def static_instruction_bound(stmt: Stmt, loop_bound: int = 1) -> float:
    """Crude static estimate of instructions, assuming ``loop_bound`` trips.

    Used by tests and diagnostics to compare original-vs-slice static
    size; not used by the controller itself.
    """
    if isinstance(stmt, Block):
        return stmt.instructions
    if isinstance(stmt, Assign):
        return 2.0
    if isinstance(stmt, Seq):
        return sum(static_instruction_bound(s, loop_bound) for s in stmt.stmts)
    if isinstance(stmt, If):
        branches = [static_instruction_bound(stmt.then, loop_bound)]
        if stmt.orelse is not None:
            branches.append(static_instruction_bound(stmt.orelse, loop_bound))
        return 1.0 + max(branches)
    if isinstance(stmt, Loop):
        if stmt.elide_body:
            return 1.0
        return 2.0 + loop_bound * static_instruction_bound(stmt.body, loop_bound)
    if isinstance(stmt, IndirectCall):
        costs = [
            static_instruction_bound(callee, loop_bound)
            for callee in stmt.table.values()
        ]
        if stmt.default is not None:
            costs.append(static_instruction_bound(stmt.default, loop_bound))
        return 4.0 + (max(costs) if costs else 0.0)
    if isinstance(stmt, Hint):
        return stmt.cost
    raise TypeError(f"unknown statement type {type(stmt).__name__}")
