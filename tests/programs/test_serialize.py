"""Tests for program (de)serialization."""

import json

import pytest

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
    Assign,
    Block,
    Hint,
    If,
    IndirectCall,
    Loop,
    Program,
    Seq,
)
from repro.programs.serialize import (
    expr_from_dict,
    expr_to_dict,
    program_from_dict,
    program_to_dict,
    stmt_from_dict,
    stmt_to_dict,
)

INTERP = Interpreter()


def roundtrip_expr(expr):
    return expr_from_dict(expr_to_dict(expr))


def roundtrip_stmt(stmt):
    return stmt_from_dict(stmt_to_dict(stmt))


class TestExprRoundtrip:
    @pytest.mark.parametrize(
        "expr,env,expected",
        [
            (Const(7), {}, 7),
            (Const(2.5), {}, 2.5),
            (Const(True), {}, True),
            (Var("x"), {"x": 3}, 3),
            (BinOp("*", Var("x"), Const(4)), {"x": 3}, 12),
            (UnaryOp("-", Var("x")), {"x": 3}, -3),
            (Compare("<", Var("x"), Const(5)), {"x": 3}, True),
            (BoolOp("and", [Const(True), Var("b")]), {"b": False}, False),
            (IfExpr(Var("c"), Const(1), Const(2)), {"c": True}, 1),
        ],
    )
    def test_roundtrip_preserves_semantics(self, expr, env, expected):
        assert roundtrip_expr(expr).evaluate(env) == expected

    def test_nested_expression(self):
        expr = BinOp(
            "+",
            BinOp("*", Var("a"), Const(2)),
            IfExpr(Compare(">", Var("b"), Const(0)), Var("b"), Const(0)),
        )
        restored = roundtrip_expr(expr)
        env = {"a": 3, "b": 4}
        assert restored.evaluate(env) == expr.evaluate(env)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            expr_from_dict({"t": "Lambda"})


class TestStmtRoundtrip:
    def test_block(self):
        restored = roundtrip_stmt(Block(100, 5, "kernel"))
        assert restored == Block(100, 5, "kernel")

    def test_assign_with_cost(self):
        restored = roundtrip_stmt(Assign("x", Const(1), cost=500))
        assert restored.cost == 500

    def test_if_with_counted_flag(self):
        stmt = If("s", Const(True), Block(1), Block(2), counted=True)
        restored = roundtrip_stmt(stmt)
        assert restored == stmt

    def test_loop_with_all_fields(self):
        stmt = Loop(
            "l",
            Var("n"),
            Block(1),
            loop_var="i",
            max_trips=99,
            counted=True,
            elide_body=True,
        )
        assert roundtrip_stmt(stmt) == stmt

    def test_indirect_call_table_keys_are_ints(self):
        stmt = IndirectCall(
            "c", Var("fn"), {10: Block(1), 20: Block(2)}, default=Block(3)
        )
        restored = roundtrip_stmt(stmt)
        assert set(restored.table) == {10, 20}
        assert restored == stmt

    def test_hint(self):
        stmt = Hint("h", Var("x"), cost=42, counted=True)
        assert roundtrip_stmt(stmt) == stmt

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            stmt_from_dict({"t": "Goto"})


class TestProgramRoundtrip:
    def test_full_program_behaviour_preserved(self):
        program = Program(
            "demo",
            Seq(
                [
                    Assign("n", Var("a") * Const(2)),
                    If(
                        "big",
                        Compare(">", Var("n"), Const(5)),
                        Loop("l", Var("n"), Block(10), counted=True),
                        Block(3),
                        counted=True,
                    ),
                ]
            ),
            globals_init={"state": 1},
        )
        restored = program_from_dict(
            json.loads(json.dumps(program_to_dict(program)))
        )
        assert restored.name == "demo"
        assert restored.globals_init == {"state": 1}
        for a in (1, 5):
            original = INTERP.execute(program, {"a": a})
            copy = INTERP.execute(restored, {"a": a})
            assert copy.work == original.work
            assert copy.features.counters == original.features.counters

    def test_workload_programs_roundtrip(self):
        """Every shipped benchmark survives serialization bit-for-bit."""
        from repro.workloads.registry import app_names, get_app

        for app in map(get_app, app_names()):
            program = app.task.program
            restored = program_from_dict(
            json.loads(json.dumps(program_to_dict(program)))
        )
            inputs = app.inputs(5, seed=3)
            g1 = program.fresh_globals()
            g2 = restored.fresh_globals()
            for job in inputs:
                a = INTERP.execute(program, job, g1)
                b = INTERP.execute(restored, job, g2)
                assert a.work == b.work, app.name
