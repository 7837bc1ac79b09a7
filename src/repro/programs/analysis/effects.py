"""Side-effect / purity analysis for prediction slices.

The paper's §3.2 safety argument is that a slice only needs to *read*
program state to compute features; writes it performs are confined to
slice-local temporaries.  The runtime enforces this dynamically by
running slices on a copy of the globals
(:meth:`~repro.programs.interpreter.Interpreter.execute_isolated`), but
isolation is a containment measure, not a proof — a slice that writes a task global
is still evidence that slicing kept a statement it should not have, and
on a real deployment (paper: compiler-extracted C slices) the same write
would corrupt application state.

This pass computes the syntactic may-write set of a statement tree and
partitions it against the program's declared globals.  A slice is
*side-effect-free* when its may-write set touches no task global.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.programs.analysis.diagnostics import Diagnostic
from repro.programs.analysis.reaching import read_variables
from repro.programs.ir import Assign, Loop, Program, Stmt, walk

__all__ = ["EffectReport", "effect_report", "effect_diagnostics"]


@dataclass(frozen=True)
class EffectReport:
    """May-read / may-write summary of a statement tree.

    Attributes:
        reads: Every variable any expression in the tree may read.
        may_write_locals: Assignment/loop-var targets that are not task
            globals (harmless: they die with the slice environment).
        may_write_globals: Targets that name a task global.  A write to
            one updates the global (the interpreter follows
            :meth:`Environment.write`), so they are observable side
            effects.
    """

    reads: frozenset[str]
    may_write_locals: frozenset[str]
    may_write_globals: frozenset[str]

    @property
    def side_effect_free(self) -> bool:
        return not self.may_write_globals


def effect_report(program: Program, root: Stmt | None = None) -> EffectReport:
    """Effect summary of ``root`` (default: the whole program body)."""
    tree = program.body if root is None else root
    globals_ = frozenset(program.globals_init)
    reads: set[str] = set()
    writes: set[str] = set()
    for node in walk(tree):
        reads |= read_variables(node)
        if isinstance(node, Assign):
            writes.add(node.target)
        elif isinstance(node, Loop) and node.loop_var is not None:
            # env.write semantics: a loop variable shadowing a global
            # name would update the global each iteration.
            if not node.elide_body:
                writes.add(node.loop_var)
    return EffectReport(
        reads=frozenset(reads),
        may_write_locals=frozenset(writes - globals_),
        may_write_globals=frozenset(writes & globals_),
    )


def effect_diagnostics(
    program: Program, root: Stmt | None = None, program_name: str = ""
) -> tuple[EffectReport, list[Diagnostic]]:
    """Run the effects pass and render findings as diagnostics.

    Global writes are warnings, not errors: ``execute_isolated``
    genuinely confines them in this simulation, so a reviewed waiver is
    a legitimate answer — but silence is not.
    """
    report = effect_report(program, root)
    diagnostics = [
        Diagnostic(
            pass_name="effects",
            severity="warning",
            site=name,
            message=(
                f"slice may write task global {name!r}; §3.2 requires "
                "slices to write only locals and feature counters "
                "(isolation confines the write here, but a compiled "
                "slice would corrupt application state)"
            ),
            program=program_name or program.name,
        )
        for name in sorted(report.may_write_globals)
    ]
    return report, diagnostics
