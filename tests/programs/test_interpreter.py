"""Tests for the IR interpreter."""

import pytest
from hypothesis import given, strategies as st

from repro.programs.expr import Const, Var
from repro.programs.interpreter import Interpreter
from repro.programs.ir import (
    ASSIGN_COST,
    BRANCH_COST,
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


def run(body, inputs=None, globals_init=None, **interp_kwargs):
    prog = Program("t", body, globals_init or {})
    interp = Interpreter(**interp_kwargs)
    g = prog.fresh_globals()
    result = interp.execute(prog, inputs or {}, g)
    return result, g


class TestConfig:
    def test_rejects_bad_cpi(self):
        with pytest.raises(ValueError):
            Interpreter(cycles_per_instruction=0)

    def test_rejects_negative_mem_latency(self):
        with pytest.raises(ValueError):
            Interpreter(mem_seconds_per_ref=-1.0)


class TestBlocksAndWork:
    def test_block_costs_instructions(self):
        result, _ = run(Block(100))
        assert result.work.cycles == 100

    def test_cpi_scales_cycles(self):
        result, _ = run(Block(100), cycles_per_instruction=2.0)
        assert result.work.cycles == 200

    def test_mem_refs_become_mem_time(self):
        result, _ = run(Block(0, mem_refs=10), mem_seconds_per_ref=1e-7)
        assert result.work.mem_time_s == pytest.approx(1e-6)

    def test_seq_accumulates(self):
        result, _ = run(Seq([Block(10), Block(20)]))
        assert result.work.cycles == 30


class TestAssign:
    def test_assign_updates_global(self):
        _, g = run(Assign("s", Const(5)), globals_init={"s": 0})
        assert g["s"] == 5

    def test_assign_costs_instructions(self):
        result, _ = run(Assign("x", Const(1)))
        assert result.work.cycles == ASSIGN_COST

    def test_assign_reads_inputs(self):
        _, g = run(
            Assign("s", Var("n")), inputs={"n": 7}, globals_init={"s": 0}
        )
        assert g["s"] == 7


class TestIf:
    def test_then_branch(self):
        result, _ = run(If("s", Const(True), Block(10), Block(20)))
        assert result.work.cycles == BRANCH_COST + 10

    def test_else_branch(self):
        result, _ = run(If("s", Const(False), Block(10), Block(20)))
        assert result.work.cycles == BRANCH_COST + 20

    def test_no_else_not_taken(self):
        result, _ = run(If("s", Const(False), Block(10)))
        assert result.work.cycles == BRANCH_COST

    def test_uncounted_records_no_feature(self):
        result, _ = run(If("s", Const(True), Block(10)))
        assert result.features.counters == {}

    def test_counted_taken_records_feature_and_cost(self):
        result, _ = run(If("s", Const(True), Block(10), counted=True))
        assert result.features.counter("s") == 1.0
        assert result.work.cycles == BRANCH_COST + COUNTER_COST + 10

    def test_counted_not_taken_is_zero(self):
        result, _ = run(If("s", Const(False), Block(10), counted=True))
        assert result.features.counter("s") == 0.0


class TestLoop:
    def test_runs_count_times(self):
        result, _ = run(Loop("l", Const(3), Block(10)))
        assert result.work.cycles == 3 * (LOOP_ITER_COST + 10)

    def test_zero_trips(self):
        result, _ = run(Loop("l", Const(0), Block(10)))
        assert result.work.cycles == 0

    def test_negative_count_clamped_to_zero(self):
        result, _ = run(Loop("l", Const(-5), Block(10)))
        assert result.work.cycles == 0

    def test_max_trips_clamps(self):
        result, _ = run(Loop("l", Const(1000), Block(1), max_trips=10))
        assert result.work.cycles == 10 * (LOOP_ITER_COST + 1)

    def test_count_from_input(self):
        result, _ = run(Loop("l", Var("n"), Block(10)), inputs={"n": 4})
        assert result.work.cycles == 4 * (LOOP_ITER_COST + 10)

    def test_loop_var_binds_index(self):
        body = Assign("total", Var("total") + Var("i"))
        _, g = run(
            Loop("l", Const(4), body, loop_var="i"), globals_init={"total": 0}
        )
        assert g["total"] == 0 + 1 + 2 + 3

    def test_counted_records_trip_count(self):
        result, _ = run(Loop("l", Const(7), Block(1), counted=True))
        assert result.features.counter("l") == 7.0

    def test_elide_body_skips_iterations_but_counts(self):
        result, _ = run(
            Loop("l", Const(7), Block(1000), counted=True, elide_body=True)
        )
        assert result.features.counter("l") == 7.0
        assert result.work.cycles == COUNTER_COST

    def test_count_evaluated_once_at_entry(self):
        # The body overwrites the count variable; trips stay at the entry value.
        body = Assign("n", Const(0))
        result, _ = run(
            Loop("l", Var("n"), body, counted=True), globals_init={"n": 3}
        )
        assert result.features.counter("l") == 3.0


class TestIndirectCall:
    def table(self):
        return {1: Block(10), 2: Block(20)}

    def test_dispatches_on_address(self):
        result, _ = run(
            IndirectCall("c", Var("fn"), self.table()), inputs={"fn": 2}
        )
        assert result.work.cycles == 4 + 20

    def test_unknown_address_uses_default(self):
        result, _ = run(
            IndirectCall("c", Const(9), self.table(), default=Block(5))
        )
        assert result.work.cycles == 4 + 5

    def test_unknown_address_no_default_is_noop(self):
        result, _ = run(IndirectCall("c", Const(9), self.table()))
        assert result.work.cycles == 4

    def test_counted_records_address(self):
        result, _ = run(
            IndirectCall("c", Var("fn"), self.table(), counted=True),
            inputs={"fn": 2},
        )
        assert result.features.call_addresses == {"c": [2]}

    def test_repeated_calls_record_in_order(self):
        body = IndirectCall("c", Var("i"), {0: Block(1), 1: Block(2)}, counted=True)
        result, _ = run(Loop("l", Const(2), body, loop_var="i"))
        assert result.features.call_addresses == {"c": [0, 1]}


class TestStatePersistence:
    def test_globals_persist_across_jobs(self):
        prog = Program(
            "t",
            Assign("turn", Var("turn") + Const(1)),
            globals_init={"turn": 0},
        )
        interp = Interpreter()
        g = prog.fresh_globals()
        for _ in range(5):
            interp.execute(prog, {}, g)
        assert g["turn"] == 5

    def test_execute_isolated_does_not_leak_writes(self):
        prog = Program(
            "t",
            Assign("turn", Var("turn") + Const(1)),
            globals_init={"turn": 0},
        )
        interp = Interpreter()
        g = prog.fresh_globals()
        result = interp.execute_isolated(prog, {}, g)
        assert g["turn"] == 0
        assert result.globals["turn"] == 1

    def test_default_globals_are_fresh_per_call(self):
        prog = Program(
            "t",
            Assign("turn", Var("turn") + Const(1)),
            globals_init={"turn": 0},
        )
        interp = Interpreter()
        r1 = interp.execute(prog, {})
        r2 = interp.execute(prog, {})
        assert r1.globals["turn"] == 1
        assert r2.globals["turn"] == 1


class TestDeterminism:
    @given(st.integers(0, 50), st.booleans())
    def test_same_inputs_same_work_and_features(self, n, flag):
        body = Seq(
            [
                If("b", Var("flag"), Block(100), Block(7), counted=True),
                Loop("l", Var("n"), Block(13), counted=True),
            ]
        )
        r1, _ = run(body, inputs={"n": n, "flag": flag})
        r2, _ = run(body, inputs={"n": n, "flag": flag})
        assert r1.work == r2.work
        assert r1.features.counters == r2.features.counters

    @given(st.integers(0, 50))
    def test_work_monotone_in_trip_count(self, n):
        body = Loop("l", Var("n"), Block(13))
        smaller, _ = run(body, inputs={"n": n})
        larger, _ = run(body, inputs={"n": n + 1})
        assert larger.work.cycles > smaller.work.cycles


class TestCompiledForm:
    """Programs compile once per object, and the compiled form is a
    private cache: invisible to equality, repr, serialization, pickling."""

    @staticmethod
    def program():
        return Program(
            "t",
            Loop("l", Var("n"), Assign("g", Var("g") + Const(1))),
            globals_init={"g": 0},
        )

    def test_compiled_once_per_program_object(self, monkeypatch):
        import repro.programs.interpreter as interpreter_module

        compiled = []
        raw = interpreter_module._compile

        def counting(program):
            compiled.append(program)
            return raw(program)

        monkeypatch.setattr(interpreter_module, "_compile", counting)
        prog = self.program()
        for interp in (Interpreter(), Interpreter(cycles_per_instruction=2.0)):
            interp.execute(prog, {"n": 3})
            interp.execute_isolated(prog, {"n": 3}, prog.fresh_globals())
        assert compiled == [prog]
        twin = self.program()
        Interpreter().execute(twin, {"n": 3})
        assert len(compiled) == 2 and compiled[1] is twin

    def test_invisible_to_equality_repr_serialization_and_pickle(self):
        import json
        import pickle

        from repro.programs.serialize import program_to_dict

        prog = self.program()

        def seen():
            return (
                repr(prog),
                pickle.dumps(prog),
                json.dumps(program_to_dict(prog)),
            )

        before = seen()
        result = Interpreter().execute(prog, {"n": 4})
        assert seen() == before
        assert prog == self.program()
        restored = pickle.loads(pickle.dumps(prog))
        assert restored == prog
        assert Interpreter().execute(restored, {"n": 4}).work == result.work

    def test_dropped_with_the_program(self):
        import gc
        import weakref

        prog = self.program()
        Interpreter().execute(prog, {"n": 2})
        ref = weakref.ref(prog)
        del prog
        gc.collect()
        assert ref() is None
