"""Statement IR for the mini task language.

Tasks are modelled as structured control flow over compute blocks:

- :class:`Block` — straight-line compute with an instruction count and a
  memory-reference count (these are what cost time; they are what slicing
  removes).
- :class:`Assign` — a scalar state update (these carry the dataflow that
  the slicer must preserve).
- :class:`Seq`, :class:`If`, :class:`Loop`, :class:`IndirectCall` —
  structured control flow.  Control-flow nodes carry a unique ``site``
  label; the instrumenter turns sites into counted features.

The three feature kinds of the paper map to three node types:
If → branch-taken count, Loop → iteration count, IndirectCall → callee
address (one-hot encoded later).
"""

from __future__ import annotations

import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterator

from repro.programs.expr import Expr

__all__ = [
    "Stmt",
    "Block",
    "Assign",
    "Seq",
    "If",
    "Loop",
    "IndirectCall",
    "Hint",
    "Program",
    "walk",
]

# Bookkeeping costs, in instructions, of the control skeleton itself.  These
# are what a prediction slice still pays after the compute is removed.
ASSIGN_COST = 2
BRANCH_COST = 1
LOOP_ITER_COST = 2
CALL_DISPATCH_COST = 4
COUNTER_COST = 1  # one feature-counter increment (instrumentation overhead)


def _check_cost(value: object, what: str, owner: str) -> None:
    """Raise ``ValueError`` unless ``value`` is a finite real ``>= 0``.

    A bool is not a count, and NaN and infinity fail the range test.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not 0 <= value < math.inf
    ):
        raise ValueError(
            f"{owner}: {what} must be a finite non-negative number, "
            f"got {value!r}"
        )


def _check_max_trips(value: object, owner: str) -> None:
    """Raise ``ValueError`` unless ``value`` is an int ``>= 0``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(
            f"{owner}: max_trips must be a non-negative int, got {value!r}"
        )


class Stmt(ABC):
    """Base class for all statements."""

    @abstractmethod
    def children(self) -> tuple["Stmt", ...]:
        """Directly nested statements."""


@dataclass(frozen=True)
class Block(Stmt):
    """Straight-line compute: costs time, touches no scalar state.

    Attributes:
        instructions: CPU instructions executed by this block.
        mem_refs: Off-core memory references (they build ``T_mem``).
        name: Optional label for debugging.
    """

    instructions: float
    mem_refs: float = 0.0
    name: str = ""

    def __post_init__(self) -> None:
        _check_cost(self.instructions, "instructions", f"block {self.name!r}")
        _check_cost(self.mem_refs, "mem_refs", f"block {self.name!r}")

    def children(self) -> tuple[Stmt, ...]:
        return ()


@dataclass(frozen=True)
class Assign(Stmt):
    """Scalar assignment ``target = expr`` (updates task state).

    ``cost`` is the instruction cost of producing the value.  Most
    assignments are register moves (the default), but some model a
    data-dependent computation — e.g. scanning an active list to count
    it — which a prediction slice must still pay for if the value feeds
    a feature (this is how slices acquire realistic execution times).
    """

    target: str
    expr: Expr
    cost: float = ASSIGN_COST

    def __post_init__(self) -> None:
        if not self.target:
            raise ValueError("Assign requires a non-empty target name")
        _check_cost(self.cost, "cost", f"assignment to {self.target!r}")

    def children(self) -> tuple[Stmt, ...]:
        return ()


@dataclass(frozen=True)
class Seq(Stmt):
    """Sequential composition of statements."""

    stmts: tuple[Stmt, ...]

    def __init__(self, stmts):
        object.__setattr__(self, "stmts", tuple(stmts))

    def children(self) -> tuple[Stmt, ...]:
        return self.stmts


@dataclass(frozen=True)
class If(Stmt):
    """Conditional.  ``site`` identifies the branch for feature counting."""

    site: str
    cond: Expr
    then: Stmt
    orelse: Stmt | None = None
    counted: bool = False

    def __post_init__(self) -> None:
        if not self.site:
            raise ValueError("If requires a non-empty site label")

    def children(self) -> tuple[Stmt, ...]:
        if self.orelse is None:
            return (self.then,)
        return (self.then, self.orelse)


@dataclass(frozen=True)
class Loop(Stmt):
    """Counted loop: evaluates ``count`` once, runs ``body`` that many times.

    Attributes:
        site: Feature-site label (iteration count).
        count: Expression giving the trip count (clamped to >= 0 ints).
        body: Loop body.
        loop_var: Optional name bound to the iteration index (0-based)
            before each body execution.
        max_trips: Safety clamp so corrupt inputs cannot hang a simulation.
        counted: Whether instrumentation counts iterations here.
        elide_body: Set by the slicer when the body sliced away entirely:
            the iteration count is still recorded (the hoisted
            ``feature += n`` of the paper's Fig. 8) but no iterations run,
            which is where the slice's speedup comes from.
    """

    site: str
    count: Expr
    body: Stmt
    loop_var: str | None = None
    max_trips: int = 1_000_000
    counted: bool = False
    elide_body: bool = False

    def __post_init__(self) -> None:
        if not self.site:
            raise ValueError("Loop requires a non-empty site label")
        _check_max_trips(self.max_trips, f"loop {self.site!r}")

    def children(self) -> tuple[Stmt, ...]:
        return (self.body,)


@dataclass(frozen=True)
class IndirectCall(Stmt):
    """Call through a function pointer.

    ``target`` evaluates to an integer address; the matching entry of
    ``table`` executes.  An unknown address falls back to ``default``
    (or does nothing), like calling into library code the tool never
    instrumented.
    """

    site: str
    target: Expr
    table: dict[int, Stmt] = field(default_factory=dict)
    default: Stmt | None = None
    counted: bool = False

    def __post_init__(self) -> None:
        if not self.site:
            raise ValueError("IndirectCall requires a non-empty site label")
        for address in self.table:
            if not isinstance(address, int):
                raise TypeError(f"call-table address {address!r} is not an int")

    def children(self) -> tuple[Stmt, ...]:
        kids = tuple(self.table[a] for a in sorted(self.table))
        if self.default is not None:
            kids += (self.default,)
        return kids


@dataclass(frozen=True)
class Hint(Stmt):
    """A programmer-provided feature hint (paper §3.5).

    The automated flow only derives *control-flow* features, but a
    programmer who knows that some value — metadata from an input file,
    a queue length — correlates with execution time can expose it
    directly.  When counted, executing the hint records the expression's
    current value as a gauge feature (an absolute reading, not a
    cumulative counter).

    Attributes:
        site: Feature-site label.
        expr: The value to expose.
        cost: Instruction cost of producing the value (metadata parsing
            is not always free; the slice pays this too).
    """

    site: str
    expr: Expr
    cost: float = ASSIGN_COST
    counted: bool = False

    def __post_init__(self) -> None:
        if not self.site:
            raise ValueError("Hint requires a non-empty site label")
        _check_cost(self.cost, "cost", f"hint {self.site!r}")

    def children(self) -> tuple[Stmt, ...]:
        return ()


@dataclass(frozen=True)
class Program:
    """A task: a statement tree plus its persistent global state.

    Attributes:
        name: Task name.
        body: Root statement.
        globals_init: Initial values of task globals (copied per run so a
            Program value is reusable).
    """

    name: str
    body: Stmt
    globals_init: dict[str, object] = field(default_factory=dict)

    def fresh_globals(self) -> dict:
        """A new mutable globals dict seeded from ``globals_init``."""
        return dict(self.globals_init)

    def __getstate__(self) -> dict:
        # Private attributes are derived caches (the interpreter keeps the
        # compiled program here); a copy or an unpickled program rebuilds
        # them, so the pickled state is the fields alone.
        return {
            key: value
            for key, value in self.__dict__.items()
            if not key.startswith("_")
        }


def walk(stmt: Stmt) -> Iterator[Stmt]:
    """Depth-first pre-order traversal of a statement tree."""
    yield stmt
    for child in stmt.children():
        yield from walk(child)

