"""Source instrumentation: turn control-flow sites into counted features.

Mirrors the paper's §3.2 source instrumentation (Fig. 7): every
conditional, loop, and function-pointer call gets a feature counter.
Instrumentation is a pure tree transformation — the original program is
untouched — and counting costs instructions at run time, exactly like the
real counter increments would.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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

__all__ = ["FeatureSite", "InstrumentedProgram", "Instrumenter"]

@dataclass(frozen=True)
class FeatureSite:
    """One instrumented location.

    Attributes:
        site: The unique site label from the IR node.
        kind: "branch", "loop", "call", or "hint".
    """

    site: str
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("branch", "loop", "call", "hint"):
            raise ValueError(f"unknown feature-site kind {self.kind!r}")


@dataclass(frozen=True)
class InstrumentedProgram:
    """An instrumented task plus the schema of sites it counts."""

    program: Program
    sites: tuple[FeatureSite, ...]

    @property
    def site_labels(self) -> tuple[str, ...]:
        return tuple(s.site for s in self.sites)


class Instrumenter:
    """Inserts feature counters at every control-flow site."""

    def instrument(self, program: Program) -> InstrumentedProgram:
        """Return an instrumented copy of ``program`` and its site schema.

        Raises:
            ValueError: If two control nodes share a site label — features
                would alias and the model could not tell them apart.
        """
        self._check_unique_sites(program)
        sites: list[FeatureSite] = []
        body = self._rewrite(program.body, sites)
        instrumented = Program(
            name=program.name,
            body=body,
            globals_init=dict(program.globals_init),
        )
        return InstrumentedProgram(program=instrumented, sites=tuple(sites))

    @staticmethod
    def _check_unique_sites(program: Program) -> None:
        seen: set[str] = set()
        for node in walk(program.body):
            site = getattr(node, "site", None)
            if site is None:
                continue
            if site in seen:
                raise ValueError(f"duplicate control site label {site!r}")
            seen.add(site)

    def _rewrite(self, stmt: Stmt, sites: list[FeatureSite]) -> Stmt:
        if isinstance(stmt, (Block, Assign)):
            return stmt
        if isinstance(stmt, Seq):
            return Seq([self._rewrite(s, sites) for s in stmt.stmts])
        if isinstance(stmt, Hint):
            sites.append(FeatureSite(stmt.site, "hint"))
            return replace(stmt, counted=True)
        if isinstance(stmt, If):
            sites.append(FeatureSite(stmt.site, "branch"))
            return replace(
                stmt,
                counted=True,
                then=self._rewrite(stmt.then, sites),
                orelse=(
                    None
                    if stmt.orelse is None
                    else self._rewrite(stmt.orelse, sites)
                ),
            )
        if isinstance(stmt, Loop):
            sites.append(FeatureSite(stmt.site, "loop"))
            return replace(
                stmt, counted=True, body=self._rewrite(stmt.body, sites)
            )
        if isinstance(stmt, IndirectCall):
            sites.append(FeatureSite(stmt.site, "call"))
            table = {
                addr: self._rewrite(callee, sites)
                for addr, callee in stmt.table.items()
            }
            default = (
                None
                if stmt.default is None
                else self._rewrite(stmt.default, sites)
            )
            return replace(stmt, counted=True, table=table, default=default)
        raise TypeError(f"unknown statement type {type(stmt).__name__}")
