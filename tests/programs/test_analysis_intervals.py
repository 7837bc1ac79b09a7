"""Interval abstract interpretation and the static cost bound.

Two layers under test: the expression-level interval algebra (each
soundness rule from the module docstring has a direct case here, plus a
property test against concrete evaluation), and the structural cost
bound, which must dominate the interpreter's actual cost accounting.
"""

import math

import pytest
from hypothesis import given, strategies as st

from repro.programs.analysis.intervals import (
    TOP,
    Interval,
    analyze_intervals,
    cost_bound,
    eval_interval,
    trip_bound,
)
from repro.programs.expr import (
    BinOp,
    BoolOp,
    Compare,
    Const,
    IfExpr,
    UnaryOp,
    Var,
)
from repro.programs.interpreter import Interpreter
from repro.programs.ir import (
    BRANCH_COST,
    CALL_DISPATCH_COST,
    COUNTER_COST,
    LOOP_ITER_COST,
    Assign,
    Block,
    If,
    IndirectCall,
    Loop,
    Program,
    Seq,
)

INTERP = Interpreter()
INF = math.inf


def iv(lo, hi):
    return Interval(float(lo), float(hi))


class TestIntervalAlgebra:
    def test_invalid_intervals_rejected(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(float("nan"), 1.0)

    def test_add_sub(self):
        env = {"a": iv(1, 2), "b": iv(10, 20)}
        assert eval_interval(Var("a") + Var("b"), env) == iv(11, 22)
        assert eval_interval(Var("b") - Var("a"), env) == iv(8, 19)

    def test_mul_zero_times_inf_is_zero(self):
        # inf is a bound, not a value: [0, inf] * [-2, -1] must include 0.
        env = {"a": iv(0, INF), "b": iv(-2, -1)}
        assert eval_interval(Var("a") * Var("b"), env) == iv(-INF, 0)

    def test_floordiv_positive_divisor(self):
        env = {"a": iv(-5, 5), "b": iv(1, 2)}
        assert eval_interval(BinOp("//", Var("a"), Var("b")), env) == iv(-5, 5)

    def test_floordiv_negative_divisor(self):
        env = {"a": iv(3, 3), "b": iv(-2, -1)}
        assert eval_interval(BinOp("//", Var("a"), Var("b")), env) == iv(-3, -2)

    def test_floordiv_divisor_spanning_zero_is_top(self):
        # Corner sampling is unsound across b = ±1 interior extremes and
        # the language's x // 0 = 0 convention, so the result widens.
        env = {"a": iv(1, 2), "b": iv(-1, 1)}
        assert eval_interval(BinOp("//", Var("a"), Var("b")), env) is TOP

    def test_truediv(self):
        env = {"a": iv(1, 4), "b": iv(2, 2)}
        assert eval_interval(BinOp("/", Var("a"), Var("b")), env) == iv(0.5, 2)
        env_zero = {"a": iv(1, 4), "b": iv(0, 2)}
        assert eval_interval(BinOp("/", Var("a"), Var("b")), env_zero) is TOP

    def test_mod_bounded_by_divisor_magnitude(self):
        env = {"a": iv(-100, 100), "b": iv(-3, 5)}
        assert eval_interval(BinOp("%", Var("a"), Var("b")), env) == iv(-5, 5)

    def test_compare_three_valued(self):
        lt = Compare("<", Var("a"), Var("b"))
        assert eval_interval(lt, {"a": iv(1, 2), "b": iv(3, 4)}) == iv(1, 1)
        assert eval_interval(lt, {"a": iv(5, 6), "b": iv(3, 4)}) == iv(0, 0)
        assert eval_interval(lt, {"a": iv(1, 4), "b": iv(3, 6)}) == iv(0, 1)

    def test_unary_ops(self):
        env = {"a": iv(-3, 2)}
        assert eval_interval(UnaryOp("-", Var("a")), env) == iv(-2, 3)
        assert eval_interval(UnaryOp("abs", Var("a")), env) == iv(0, 3)
        assert eval_interval(
            UnaryOp("int", Var("x")), {"x": iv(-2.7, 3.9)}
        ) == iv(-2, 3)
        assert eval_interval(UnaryOp("not", Var("b")), {"b": iv(1, 5)}) == iv(
            0, 0
        )

    def test_ifexpr_definite_and_hull(self):
        pick = IfExpr(Compare("<", Var("a"), Const(10)), Const(1), Const(100))
        assert eval_interval(pick, {"a": iv(0, 5)}) == iv(1, 1)
        assert eval_interval(pick, {"a": iv(0, 50)}) == iv(1, 100)

    def test_boolop(self):
        both = BoolOp("and", (Var("a"), Var("b")))
        assert eval_interval(both, {"a": iv(1, 1), "b": iv(2, 3)}) == iv(1, 1)
        assert eval_interval(both, {"a": iv(0, 0), "b": iv(2, 3)}) == iv(0, 0)
        either = BoolOp("or", (Var("a"), Var("b")))
        assert eval_interval(either, {"a": iv(0, 1), "b": iv(1, 1)}) == iv(1, 1)

    def test_missing_names_read_top(self):
        assert eval_interval(Var("ghost"), {}) is TOP


def small_exprs(depth=2):
    """Expressions over every interval-handled operator."""
    leaves = st.one_of(
        st.integers(-4, 9).map(Const),
        st.sampled_from(["u", "v", "w"]).map(Var),
    )
    if depth == 0:
        return leaves
    sub = small_exprs(depth - 1)
    return st.one_of(
        leaves,
        st.builds(
            BinOp,
            st.sampled_from(["+", "-", "*", "//", "%", "min", "max"]),
            sub,
            sub,
        ),
        st.builds(UnaryOp, st.sampled_from(["-", "abs", "int", "not"]), sub),
        st.builds(
            Compare, st.sampled_from(["<", "<=", "==", "!=", ">", ">="]),
            sub, sub,
        ),
        st.builds(IfExpr, sub, sub, sub),
    )


class TestIntervalSoundness:
    @given(
        expr=small_exprs(),
        values=st.fixed_dictionaries(
            {name: st.integers(-6, 15) for name in ("u", "v", "w")}
        ),
    )
    def test_concrete_value_always_inside_interval(self, expr, values):
        env = {name: iv(-6, 15) for name in ("u", "v", "w")}
        result = eval_interval(expr, env)
        concrete = expr.evaluate(values)
        assert result.lo <= concrete <= result.hi


class TestIntervalAnalysis:
    def test_widening_terminates_on_growing_counter(self):
        body = Assign("x", Var("x") + Const(1))
        program = Program(
            "p",
            Seq([Assign("x", Const(0)), Loop("l", Var("n"), body)]),
        )
        engine = analyze_intervals(program, {"n": (0, 1e9)})
        invariant = engine.state_at(body)
        assert invariant["x"].lo == 0.0
        assert invariant["x"].hi == INF

    def test_branch_hull(self):
        after = Assign("y", Var("x"))
        program = Program(
            "p",
            Seq(
                [
                    Assign("x", Const(1)),
                    If(
                        "b",
                        Compare("<", Var("n"), Const(0)),
                        Assign("x", Const(10)),
                    ),
                    after,
                ]
            ),
        )
        engine = analyze_intervals(program, {"n": (-5, 5)})
        assert engine.state_at(after)["x"] == iv(1, 10)

    def test_trip_bound_follows_interpreter_clamps(self):
        loop = Loop("l", Var("n"), Block(1), max_trips=100)
        assert trip_bound(loop, {"n": iv(2.0, 7.9)}) == 7.0
        assert trip_bound(loop, {"n": iv(-5.0, -1.0)}) == 0.0
        assert trip_bound(loop, {"n": TOP}) == 100.0


class TestCostBound:
    def test_counted_loop_bound_is_exact_at_worst_case(self):
        program = Program(
            "p",
            Seq(
                [
                    Assign("n", Var("in_a") * Const(2)),
                    Loop("l", Var("n"), Block(100, 3), max_trips=1000),
                ]
            ),
        )
        bound, diags = cost_bound(program, input_ranges={"in_a": (1, 5)})
        assert diags == []
        assert bound.tight
        expected = 2 + 10 * (LOOP_ITER_COST + 100)
        assert bound.instructions == expected
        assert bound.mem_refs == 30
        worst = INTERP.execute(program, {"in_a": 5}, {})
        assert worst.work.cycles == pytest.approx(
            bound.instructions * INTERP.cycles_per_instruction
        )
        assert worst.work.mem_time_s == pytest.approx(
            bound.mem_refs * INTERP.mem_seconds_per_ref
        )

    def test_counted_if_charges_counter_on_taken_branch_only(self):
        program = Program(
            "p",
            Seq(
                [
                    If(
                        "b",
                        Compare("<", Var("in_a"), Const(0)),
                        Block(50),
                        Block(10),
                        counted=True,
                    )
                ]
            ),
        )
        bound, _ = cost_bound(program, input_ranges={"in_a": (-5, 5)})
        assert bound.instructions == BRANCH_COST + 50 + COUNTER_COST
        for value in (-1, 1):
            actual = INTERP.execute(program, {"in_a": value}, {})
            assert actual.work.cycles <= bound.instructions

    def test_elided_loop_costs_only_its_counter(self):
        program = Program(
            "p",
            Seq(
                [
                    Loop(
                        "l",
                        Var("in_a"),
                        Block(10_000),
                        counted=True,
                        elide_body=True,
                    )
                ]
            ),
        )
        bound, diags = cost_bound(program)
        assert bound.instructions == COUNTER_COST
        assert bound.tight
        assert diags == []

    def test_unconstrained_loop_count_clamps_and_warns(self):
        program = Program(
            "p", Seq([Loop("l", Var("in_a"), Block(10), max_trips=40)])
        )
        bound, diags = cost_bound(program)  # no input range for in_a
        assert not bound.tight
        assert bound.instructions == 40 * (LOOP_ITER_COST + 10)
        assert any(d.site == "l" for d in diags)

    def test_indirect_call_takes_worst_callee(self):
        program = Program(
            "p",
            Seq(
                [
                    IndirectCall(
                        "c",
                        Var("in_a"),
                        {0: Block(100), 1: Block(10)},
                        counted=True,
                    )
                ]
            ),
        )
        bound, _ = cost_bound(program, input_ranges={"in_a": (0, 1)})
        assert bound.instructions == CALL_DISPATCH_COST + COUNTER_COST + 100
        for addr in (0, 1):
            actual = INTERP.execute(program, {"in_a": addr}, {})
            assert actual.work.cycles <= bound.instructions
