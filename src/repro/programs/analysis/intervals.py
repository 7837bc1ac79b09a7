"""Interval-domain abstract interpretation and static cost bounds.

Two layers:

1. :class:`IntervalAnalysis` — a forward dataflow pass (on the generic
   engine) mapping every variable to an interval enclosing all values it
   can take, given intervals for the program inputs.  Loop back edges
   widen unstable bounds to ±inf so fixpoints terminate.
2. :class:`CostBoundAnalyzer` — a structural walk that uses the recorded
   per-node interval invariants to bound each loop's trip count, and
   from that derives a worst-case (instructions, mem_refs) cost for the
   whole tree under the interpreter's exact cost model.

The cost bound is computed structurally rather than as dataflow state on
purpose: "cost so far" grows without bound around loop back edges, so
folding it into the fixpoint would widen it straight to +inf; trip-count
× body-cost over the *converged* invariant stays finite and sound.

Soundness notes baked into the transfer functions (each has a test):
- multiplication uses corner sampling with the convention 0·inf = 0;
- floor division corner-samples only when the divisor interval lies in
  [1, inf) or (-inf, -1] — across small magnitudes the extreme is at an
  interior point (b = ±1), and the language maps x//0 to 0, so anything
  else returns TOP;
- true division corner-samples only when the divisor excludes zero;
- modulo returns [-m, m] for m = max(|b.lo|, |b.hi|), a superset of both
  Python's sign-follows-divisor result and the language's x % 0 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.programs.analysis.dataflow import DataflowEngine, DataflowPass
from repro.programs.analysis.diagnostics import Diagnostic
from repro.programs.expr import (
    BinOp,
    BoolOp,
    Compare,
    Const,
    Expr,
    IfExpr,
    UnaryOp,
    Var,
)
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
)

__all__ = [
    "Interval",
    "TOP",
    "eval_interval",
    "IntervalAnalysis",
    "IntervalEnv",
    "analyze_intervals",
    "CostBound",
    "CostBoundAnalyzer",
    "cost_bound",
]

_INF = math.inf


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi] over the extended reals."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def const(cls, value: float) -> "Interval":
        v = float(value)
        return cls(v, v)

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def widened(self, newer: "Interval") -> "Interval":
        """Standard interval widening: unstable bounds jump to ±inf."""
        return Interval(
            self.lo if newer.lo >= self.lo else -_INF,
            self.hi if newer.hi <= self.hi else _INF,
        )

    @property
    def is_top(self) -> bool:
        return self.lo == -_INF and self.hi == _INF

    @property
    def definitely_true(self) -> bool:
        """Every value in the interval is truthy (zero excluded)."""
        return self.lo > 0 or self.hi < 0

    @property
    def definitely_false(self) -> bool:
        return self.lo == 0 and self.hi == 0

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


TOP = Interval(-_INF, _INF)
_BOOL = Interval(0.0, 1.0)
_TRUE = Interval(1.0, 1.0)
_FALSE = Interval(0.0, 0.0)


def _from_bool3(value: bool | None) -> Interval:
    """Three-valued truth to an interval (None = unknown)."""
    if value is None:
        return _BOOL
    return _TRUE if value else _FALSE


def _corners(fn, a: Interval, b: Interval, extra_a=()) -> Interval:
    """Hull of ``fn`` over the interval corners (requires monotonicity of
    ``fn`` in each argument over the sampled region — callers guarantee
    it, see the module docstring)."""
    values = []
    for x in (a.lo, a.hi, *extra_a):
        for y in (b.lo, b.hi):
            v = fn(x, y)
            if math.isnan(v):
                return TOP
            values.append(v)
    return Interval(min(values), max(values))


def _mul(x: float, y: float) -> float:
    if x == 0 or y == 0:
        return 0.0  # 0 * inf is 0 here: the inf is a bound, not a value
    return x * y


def _floordiv(x: float, y: float) -> float:
    if math.isinf(y):
        # x // ±inf is 0 or -1 depending on signs; -1 is the lower hull.
        return 0.0 if (x >= 0) == (y > 0) else -1.0
    if math.isinf(x):
        return x if y > 0 else -x
    return x // y


def _add_interval(a: Interval, b: Interval) -> Interval:
    return _corners(lambda x, y: x + y, a, b)


def _sub_interval(a: Interval, b: Interval) -> Interval:
    return _corners(lambda x, y: x - y, a, b)


def _mul_interval(a: Interval, b: Interval) -> Interval:
    return _corners(_mul, a, b)


def _floordiv_interval(a: Interval, b: Interval) -> Interval:
    if b.lo >= 1 or b.hi <= -1:
        extra = (0.0,) if a.lo <= 0 <= a.hi else ()
        return _corners(_floordiv, a, b, extra_a=extra)
    return TOP


def _truediv_interval(a: Interval, b: Interval) -> Interval:
    if b.lo > 0 or b.hi < 0:
        extra = (0.0,) if a.lo <= 0 <= a.hi else ()
        return _corners(
            lambda x, y: 0.0 if math.isinf(y) else x / y, a, b, extra_a=extra
        )
    return TOP


def _mod_interval(a: Interval, b: Interval) -> Interval:
    m = max(abs(b.lo), abs(b.hi))
    if math.isinf(m):
        return TOP
    return Interval(-m, m)


def _min_interval(a: Interval, b: Interval) -> Interval:
    return Interval(min(a.lo, b.lo), min(a.hi, b.hi))


def _max_interval(a: Interval, b: Interval) -> Interval:
    return Interval(max(a.lo, b.lo), max(a.hi, b.hi))


_BIN_INTERVAL = {
    "+": _add_interval,
    "-": _sub_interval,
    "*": _mul_interval,
    "//": _floordiv_interval,
    "/": _truediv_interval,
    "%": _mod_interval,
    "min": _min_interval,
    "max": _max_interval,
}


def _compare_interval(op: str, a: Interval, b: Interval) -> Interval:
    if op == "<":
        return _from_bool3(
            True if a.hi < b.lo else (False if a.lo >= b.hi else None)
        )
    if op == "<=":
        return _from_bool3(
            True if a.hi <= b.lo else (False if a.lo > b.hi else None)
        )
    if op == ">":
        return _compare_interval("<", b, a)
    if op == ">=":
        return _compare_interval("<=", b, a)
    if op == "==":
        if a.lo == a.hi == b.lo == b.hi:
            return _TRUE
        if a.hi < b.lo or b.hi < a.lo:
            return _FALSE
        return _BOOL
    if op == "!=":
        eq = _compare_interval("==", a, b)
        if eq is _TRUE:
            return _FALSE
        if eq is _FALSE:
            return _TRUE
        return _BOOL
    raise ValueError(f"unknown comparison operator {op!r}")


def _trunc(x: float) -> float:
    return x if math.isinf(x) else float(math.trunc(x))


def _abs_interval(a: Interval) -> Interval:
    if a.lo >= 0:
        return a
    if a.hi <= 0:
        return Interval(-a.hi, -a.lo)
    return Interval(0.0, max(-a.lo, a.hi))


def eval_interval(expr: Expr, env) -> Interval:
    """Interval enclosing every value ``expr`` can take under ``env``.

    ``env`` maps variable names to :class:`Interval`; missing names are
    TOP (the variable is unconstrained, e.g. possibly unbound on some
    path — the hazard linter reports that separately).
    """
    if isinstance(expr, Const):
        return Interval.const(expr.value)
    if isinstance(expr, Var):
        return env.get(expr.name, TOP)
    if isinstance(expr, BinOp):
        return _BIN_INTERVAL[expr.op](
            eval_interval(expr.left, env), eval_interval(expr.right, env)
        )
    if isinstance(expr, UnaryOp):
        a = eval_interval(expr.operand, env)
        if expr.op == "-":
            return Interval(-a.hi, -a.lo)
        if expr.op == "abs":
            return _abs_interval(a)
        if expr.op == "int":
            return Interval(_trunc(a.lo), _trunc(a.hi))
        if expr.op == "not":
            if a.definitely_true:
                return _FALSE
            if a.definitely_false:
                return _TRUE
            return _BOOL
        raise ValueError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, Compare):
        return _compare_interval(
            expr.op,
            eval_interval(expr.left, env),
            eval_interval(expr.right, env),
        )
    if isinstance(expr, BoolOp):
        operands = [eval_interval(o, env) for o in expr.operands]
        if expr.op == "and":
            if any(o.definitely_false for o in operands):
                return _FALSE
            if all(o.definitely_true for o in operands):
                return _TRUE
            return _BOOL
        if any(o.definitely_true for o in operands):
            return _TRUE
        if all(o.definitely_false for o in operands):
            return _FALSE
        return _BOOL
    if isinstance(expr, IfExpr):
        cond = eval_interval(expr.cond, env)
        if cond.definitely_true:
            return eval_interval(expr.then, env)
        if cond.definitely_false:
            return eval_interval(expr.orelse, env)
        return eval_interval(expr.then, env).hull(
            eval_interval(expr.orelse, env)
        )
    raise TypeError(f"unknown expression type {type(expr).__name__}")


# The abstract state: var -> Interval.  Unmapped names read as TOP, so
# join keeps only names bound on *both* paths and drops TOP entries to
# keep states canonical for the fixpoint equality test.
IntervalEnv = dict


def _canonical(env: IntervalEnv) -> IntervalEnv:
    return {k: v for k, v in env.items() if not v.is_top}


class IntervalAnalysis(DataflowPass[IntervalEnv]):
    """Forward interval propagation over the statement tree."""

    name = "intervals"
    direction = "forward"

    def join(self, a: IntervalEnv, b: IntervalEnv) -> IntervalEnv:
        if a == b:
            return a
        return _canonical(
            {k: a[k].hull(b[k]) for k in a.keys() & b.keys()}
        )

    def widen(self, older: IntervalEnv, newer: IntervalEnv) -> IntervalEnv:
        return _canonical(
            {
                k: older[k].widened(newer[k])
                for k in older.keys() & newer.keys()
            }
        )

    def transfer_assign(self, stmt: Assign, env: IntervalEnv) -> IntervalEnv:
        value = eval_interval(stmt.expr, env)
        out = {k: v for k, v in env.items() if k != stmt.target}
        if not value.is_top:
            out[stmt.target] = value
        return out

    def bind_loop_var(self, stmt: Loop, env: IntervalEnv) -> IntervalEnv:
        if stmt.loop_var is None:
            return env
        hi_trips = trip_bound(stmt, env)
        out = dict(env)
        out[stmt.loop_var] = Interval(0.0, max(0.0, hi_trips - 1))
        return out


def trip_bound(stmt: Loop, env: IntervalEnv) -> float:
    """Upper bound on a counted loop's trips under ``env``.

    Mirrors the interpreter: ``trips = int(count)`` clamped to
    ``[0, max_trips]``; an unbounded count interval clamps to
    ``max_trips`` (the interpreter's own safety net keeps this sound).
    """
    count = eval_interval(stmt.count, env)
    hi = count.hi if math.isinf(count.hi) else float(math.trunc(count.hi))
    return min(max(0.0, hi), float(stmt.max_trips))


def analyze_intervals(
    program: Program,
    input_ranges=None,
) -> DataflowEngine[IntervalEnv]:
    """Run interval analysis; returns the engine for per-node queries.

    Args:
        program: The program (its ``globals_init`` seed the entry state).
        input_ranges: Optional mapping of input name -> (lo, hi) pairs,
            e.g. derived from the profiling sample.  Unlisted inputs are
            unconstrained (TOP).
    """
    entry: IntervalEnv = {}
    for name, value in program.globals_init.items():
        if isinstance(value, (bool, int, float)):
            entry[name] = Interval.const(value)
    for name, (lo, hi) in (input_ranges or {}).items():
        entry[name] = Interval(float(lo), float(hi))
    engine = DataflowEngine(IntervalAnalysis())
    engine.run(program.body, _canonical(entry))
    return engine


@dataclass(frozen=True)
class CostBound:
    """Worst-case execution cost of a statement tree.

    Attributes:
        instructions: Upper bound on instructions executed.
        mem_refs: Upper bound on off-core memory references.
        tight: False when some loop bound came from the ``max_trips``
            safety clamp rather than from the interval analysis — the
            bound is still sound but too loose to spend scheduling
            headroom on.
    """

    instructions: float
    mem_refs: float
    tight: bool


class CostBoundAnalyzer:
    """Bounds cost structurally using recorded interval invariants.

    Args:
        engine: An engine that already ran :class:`IntervalAnalysis`
            over the same tree (its per-node records supply the loop
            trip-count environments).
        program_name: Stamped on the emitted diagnostics.
    """

    def __init__(
        self, engine: DataflowEngine[IntervalEnv], program_name: str = ""
    ):
        self._engine = engine
        self._program_name = program_name
        self.diagnostics: list[Diagnostic] = []

    def bound(self, stmt: Stmt) -> CostBound:
        if isinstance(stmt, Block):
            return CostBound(stmt.instructions, stmt.mem_refs, True)
        if isinstance(stmt, Assign):
            return CostBound(stmt.cost, 0.0, True)
        if isinstance(stmt, Hint):
            extra = COUNTER_COST if stmt.counted else 0.0
            return CostBound(stmt.cost + extra, 0.0, True)
        if isinstance(stmt, Seq):
            parts = [self.bound(child) for child in stmt.stmts]
            return CostBound(
                sum(p.instructions for p in parts),
                sum(p.mem_refs for p in parts),
                all(p.tight for p in parts),
            )
        if isinstance(stmt, If):
            then = self.bound(stmt.then)
            orelse = (
                self.bound(stmt.orelse)
                if stmt.orelse is not None
                else CostBound(0.0, 0.0, True)
            )
            # The feature counter bumps only on the taken branch.
            taken_extra = COUNTER_COST if stmt.counted else 0.0
            return CostBound(
                BRANCH_COST
                + max(then.instructions + taken_extra, orelse.instructions),
                max(then.mem_refs, orelse.mem_refs),
                then.tight and orelse.tight,
            )
        if isinstance(stmt, Loop):
            counter = COUNTER_COST if stmt.counted else 0.0
            if stmt.elide_body:
                # Hoisted `feature += n` (Fig. 8): counter only.
                return CostBound(counter, 0.0, True)
            env = self._engine.state_at(stmt) or {}
            trips = trip_bound(stmt, env)
            clamped = trips >= stmt.max_trips
            if clamped:
                self._warn_clamp(stmt.site, stmt.max_trips)
            body = self.bound(stmt.body)
            return CostBound(
                counter + trips * (LOOP_ITER_COST + body.instructions),
                trips * body.mem_refs,
                body.tight and not clamped,
            )
        if isinstance(stmt, IndirectCall):
            counter = COUNTER_COST if stmt.counted else 0.0
            callees = [self.bound(callee) for callee in stmt.table.values()]
            callees.append(
                self.bound(stmt.default)
                if stmt.default is not None
                else CostBound(0.0, 0.0, True)
            )
            return CostBound(
                CALL_DISPATCH_COST
                + counter
                + max(c.instructions for c in callees),
                max(c.mem_refs for c in callees),
                all(c.tight for c in callees),
            )
        raise TypeError(f"unknown statement type {type(stmt).__name__}")

    def _warn_clamp(self, site: str, max_trips: int) -> None:
        self.diagnostics.append(
            Diagnostic(
                pass_name="intervals",
                severity="warning",
                site=site,
                message=(
                    f"trip count of loop {site!r} is only bounded by its "
                    f"max_trips clamp ({max_trips}); the static cost bound "
                    "is sound but too loose to schedule against"
                ),
                program=self._program_name,
            )
        )


def cost_bound(
    program: Program,
    input_ranges=None,
    program_name: str = "",
) -> tuple[CostBound, list[Diagnostic]]:
    """Worst-case cost of ``program`` given input ranges.

    Convenience wrapper: runs the interval analysis, then the structural
    cost walk.  Returns the bound and any looseness diagnostics.
    """
    engine = analyze_intervals(program, input_ranges)
    analyzer = CostBoundAnalyzer(
        engine, program_name or program.name
    )
    bound = analyzer.bound(program.body)
    if not math.isfinite(bound.instructions):
        bound = CostBound(bound.instructions, bound.mem_refs, False)
        analyzer.diagnostics.append(
            Diagnostic(
                pass_name="intervals",
                severity="warning",
                site="",
                message=(
                    "static instruction bound is unbounded (an input or "
                    "trip count has no finite range); the governor will "
                    "ignore it"
                ),
                program=program_name or program.name,
            )
        )
    return bound, analyzer.diagnostics
