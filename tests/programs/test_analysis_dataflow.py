"""Unit tests for the structural dataflow engine and its classic passes.

The engine has no flat CFG to lean on — loops iterate to fixpoints over
the statement tree — so these tests pin down the traversal semantics:
branch joins, loop invariants, elided bodies, backward passes, and the
divergence guard.
"""

import pytest

from repro.programs.analysis.dataflow import DataflowEngine, DataflowPass, FixpointDiverged
from repro.programs.analysis.reaching import (
    GLOBAL_DEF,
    INPUT_DEF,
    LOOP_VAR_DEF,
    live_variables,
    reaching_definitions,
)
from repro.programs.expr import Compare, Const, Var
from repro.programs.ir import (
    Assign,
    Block,
    If,
    IndirectCall,
    Loop,
    Program,
    Seq,
)


def defs_of(engine, node, name):
    """The reaching-definition tokens of ``name`` at ``node``."""
    state = engine.state_at(node)
    assert state is not None
    return dict(state).get(name, frozenset())


class TestReachingDefinitions:
    def test_boundary_binds_inputs_and_globals(self):
        reader = Assign("y", Var("in_a") + Var("g"))
        program = Program("p", Seq([reader]), globals_init={"g": 7})
        engine = reaching_definitions(program, frozenset({"in_a"}))
        assert defs_of(engine, reader, "in_a") == {INPUT_DEF}
        assert defs_of(engine, reader, "g") == {GLOBAL_DEF}

    def test_use_before_def_has_no_reaching_definition(self):
        use = Assign("y", Var("x"))
        define = Assign("x", Const(1))
        program = Program("p", Seq([use, define]))
        engine = reaching_definitions(program)
        assert defs_of(engine, use, "x") == frozenset()
        later = Assign("z", Var("x"))
        program2 = Program("p", Seq([define, later]))
        engine2 = reaching_definitions(program2)
        assert len(defs_of(engine2, later, "x")) == 1

    def test_branch_join_unions_definitions(self):
        init = Assign("x", Const(0))
        redefine = Assign("x", Const(1))
        after = Assign("y", Var("x"))
        program = Program(
            "p",
            Seq(
                [
                    init,
                    If("b", Compare("<", Var("in_a"), Const(0)), redefine),
                    after,
                ]
            ),
        )
        engine = reaching_definitions(program, frozenset({"in_a"}))
        # Both the fall-through and the taken-branch definitions survive.
        assert len(defs_of(engine, after, "x")) == 2

    def test_loop_carried_definition_reaches_body_entry(self):
        body = Assign("acc", Var("acc") + Const(1))
        program = Program(
            "p",
            Seq(
                [
                    Assign("acc", Const(0)),
                    Loop("l", Var("in_a"), body),
                ]
            ),
        )
        engine = reaching_definitions(program, frozenset({"in_a"}))
        # The invariant at the body joins the pre-loop def with the
        # loop-carried one from previous iterations.
        assert len(defs_of(engine, body, "acc")) == 2

    def test_loop_var_is_defined_inside_body(self):
        body = Assign("y", Var("i"))
        program = Program(
            "p", Seq([Loop("l", Const(3), body, loop_var="i")])
        )
        engine = reaching_definitions(program)
        assert defs_of(engine, body, "i") == {LOOP_VAR_DEF}

    def test_elided_body_is_not_traversed(self):
        body = Assign("y", Var("dropped"))
        program = Program(
            "p",
            Seq(
                [
                    Loop(
                        "l",
                        Const(3),
                        body,
                        counted=True,
                        elide_body=True,
                    )
                ]
            ),
        )
        engine = reaching_definitions(program)
        assert engine.state_at(body) is None

    def test_call_table_entries_all_analyzed(self):
        a = Assign("x", Const(1))
        b = Assign("y", Var("x"))
        program = Program(
            "p",
            Seq([IndirectCall("c", Var("in_a"), {0: a, 1: b})]),
        )
        engine = reaching_definitions(program, frozenset({"in_a"}))
        # Callees fork from the same entry state: callee 1 cannot see
        # callee 0's assignment.
        assert engine.state_at(a) is not None
        assert defs_of(engine, b, "x") == frozenset()


class TestLiveness:
    def test_globals_are_live_at_exit_by_default(self):
        store = Assign("g", Const(1))
        program = Program("p", Seq([store]), globals_init={"g": 0})
        result = live_variables(program)
        # The store is the last statement, yet its target stays live
        # because globals persist across jobs.
        assert "g" in result.live_after(store)

    def test_dead_store_detected(self):
        dead = Assign("t", Const(1))
        live = Assign("t", Const(2))
        sink = Assign("g", Var("t"))
        program = Program("p", Seq([dead, live, sink]), globals_init={"g": 0})
        result = live_variables(program)
        assert "t" not in result.live_after(dead)
        assert "t" in result.live_after(live)

    def test_condition_reads_are_live(self):
        body = Block(10)
        program = Program(
            "p",
            Seq([If("b", Compare(">", Var("n"), Const(0)), body)]),
        )
        result = live_variables(program)
        # The branch reads ``n`` before its arm runs, and nothing after.
        assert "n" in result.live_at_entry
        assert "n" not in result.live_after(body)

    def test_rhs_reads_count_even_for_dead_targets(self):
        # The interpreter evaluates every RHS (no dead-store elimination),
        # so a dead store still keeps its operands live.
        dead = Assign("t", Var("src"))
        program = Program("p", Seq([dead]))
        result = live_variables(program)
        assert "src" in result.live_at_entry

    def test_loop_var_not_live_before_loop(self):
        body = Assign("g", Var("i"))
        program = Program(
            "p",
            Seq([Loop("l", Var("n"), body, loop_var="i")]),
            globals_init={"g": 0},
        )
        result = live_variables(program)
        assert "i" not in result.live_at_entry
        assert "n" in result.live_at_entry


class _DivergingPass(DataflowPass):
    """A deliberately broken lattice: states grow on every round and the
    default widen (= join) never accelerates them to a fixpoint."""

    name = "diverging"

    def join(self, a, b):
        return max(a, b)

    def transfer_assign(self, stmt, state):
        return state + 1


class TestEngineGuards:
    def test_non_convergent_widening_raises(self):
        body = Assign("x", Const(0))
        loop = Loop("l", Const(3), body)
        engine = DataflowEngine(_DivergingPass())
        with pytest.raises(FixpointDiverged, match="diverging"):
            engine.run(Seq([loop]), 0)

    def test_zero_iteration_path_stays_in_invariant(self):
        # The loop entry state must survive the fixpoint: a definition
        # made only inside the body cannot kill the pre-loop one.
        pre = Assign("x", Const(0))
        body = Assign("x", Const(1))
        after = Assign("y", Var("x"))
        program = Program(
            "p", Seq([pre, Loop("l", Var("in_a"), body), after])
        )
        engine = reaching_definitions(program, frozenset({"in_a"}))
        tokens = defs_of(engine, after, "x")
        assert len(tokens) == 2  # pre-loop def and body def both reach
