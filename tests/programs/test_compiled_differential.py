"""Compiled programs against the tree-walking reference, bit for bit.

:class:`repro.programs.interpreter.Interpreter` compiles each program to
Python code; ``reference_interpreter.TreeWalkingInterpreter`` is the
node-by-node interpreter it replaced.  Over random programs (plus their
instrumented and sliced versions) and over every shipped workload's task,
instrumented and trained-slice programs, both must produce:

- the same ``repr`` of Work (float tallies identical, not approximately
  equal);
- the same feature counters and call addresses, key order included;
- the same final globals, key order included;
- the same ``KeyError`` naming the variable on an undefined read.

Each stream runs ``execute_isolated`` then ``execute`` per job, with the
globals persisting across jobs, so every run starts from evolved state.
"""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.harness import Lab
from repro.programs.expr import BinOp, BoolOp, Compare, Const, IfExpr, UnaryOp, Var
from repro.programs.instrument import Instrumenter
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
from repro.programs.slicer import Slicer
from repro.workloads.registry import app_names
from tests.programs.reference_interpreter import TreeWalkingInterpreter
from tests.programs.test_random_programs import (
    INPUT_VARS,
    deep,
    program_and_inputs,
    programs,
)

REFERENCE = TreeWalkingInterpreter()
COMPILED = Interpreter()


def _run(interpreter, method, program, inputs, globals_):
    """(result, None) or (None, KeyError message)."""
    try:
        return getattr(interpreter, method)(program, inputs, globals_), None
    except KeyError as exc:
        return None, str(exc)


def assert_same_stream(program, job_inputs):
    """Both interpreters over one job stream, each with its own globals."""
    ref_globals = program.fresh_globals()
    new_globals = program.fresh_globals()
    for inputs in job_inputs:
        for method in ("execute_isolated", "execute"):
            ref, ref_error = _run(REFERENCE, method, program, inputs, ref_globals)
            new, new_error = _run(COMPILED, method, program, inputs, new_globals)
            assert new_error == ref_error
            if ref_error is not None:
                assert ref_error.startswith('"undefined variable'), ref_error
            else:
                assert_same_result(new, ref)
            assert _exact(new_globals) == _exact(ref_globals)


def _exact(mapping):
    """Items in order, as reprs: 0 vs 0.0 vs False and -0.0 vs 0.0 differ."""
    return repr(list(mapping.items()))


def assert_same_result(new, ref):
    assert repr(new.work) == repr(ref.work)
    assert _exact(new.features.counters) == _exact(ref.features.counters)
    assert _exact(new.features.call_addresses) == _exact(
        ref.features.call_addresses
    )
    assert _exact(new.globals) == _exact(ref.globals)


def _versions(program):
    """The program, its instrumented version and its full slice."""
    instrumented = Instrumenter().instrument(program)
    return program, instrumented.program, Slicer().slice(instrumented).program


class TestRandomPrograms:
    @deep
    @given(pi=program_and_inputs(n_inputs=4))
    def test_task_instrumented_and_slice_match(self, pi):
        program, job_inputs = pi
        for version in _versions(program):
            assert_same_stream(version, job_inputs)

    @deep
    @given(pi=program_and_inputs(n_inputs=4, reads_locals=True))
    def test_programs_reading_locals_match(self, pi):
        """Locals and loop variables read in and out of loops, bound or
        not: the compiled form holds them in Python locals."""
        program, job_inputs = pi
        for version in _versions(program):
            assert_same_stream(version, job_inputs)

    @deep
    @given(
        program=programs(),
        missing=st.sampled_from(INPUT_VARS),
        values=st.lists(st.integers(-5, 20), min_size=6, max_size=6),
    )
    def test_undefined_read_raises_the_same_key_error(
        self, program, missing, values
    ):
        present = [name for name in INPUT_VARS if name != missing]
        job_inputs = [
            dict(zip(present, values[:2])),
            dict(zip(present, values[2:4])),
        ]
        for version in _versions(program):
            assert_same_stream(version, job_inputs)


@pytest.mark.parametrize("app_name", app_names())
def test_workload_programs_match(app_name):
    """Task, instrumented and trained-slice programs over 50 jobs."""
    lab = Lab()
    controller = lab.controller(app_name)
    job_inputs = lab.app(app_name).inputs(50, seed=3)
    for program in (
        lab.app(app_name).task.program,
        controller.instrumented.program,
        controller.slice.program,
    ):
        assert_same_stream(program, job_inputs)


class TestEdgeCases:
    def test_every_operator_and_node_kind(self):
        x, y, z = Var("x"), Var("y"), Var("z")
        exprs = [
            BinOp(op, x, y)
            for op in ("+", "-", "*", "//", "/", "%", "min", "max")
        ] + [
            BinOp(op, x, Const(0)) for op in ("//", "/", "%")
        ] + [
            Compare(op, x, z) for op in ("==", "!=", "<", "<=", ">", ">=")
        ] + [
            UnaryOp(op, z) for op in ("-", "not", "abs", "int")
        ] + [
            BoolOp("and", [x, y, z]),
            BoolOp("or", [y, Const(0), z]),
            IfExpr(Compare("<", x, y), Const(-2.5), Const(float("inf"))),
        ]
        body = Seq(
            [Hint(f"h{i}", e, counted=True) for i, e in enumerate(exprs)]
            # Locals keep each value's exact type (0 vs 0.0, True vs 1).
            + [Assign(f"v{i}", e) for i, e in enumerate(exprs)]
            + [
                Loop(
                    "w",
                    Var("g"),
                    Seq([Block(3, 0.25), Assign("g", Var("g") - Const(1))]),
                    max_trips=4,
                    counted=True,
                ),
                IndirectCall(
                    "c", x, {True: Block(1)}, default=Block(2), counted=True
                ),
                IndirectCall("d", y, {}, default=Block(5)),
                Loop("e", Const(9), Block(1), counted=True, elide_body=True),
                Loop("m", Const(0.0), Seq([]), max_trips=0),
                If("i", Const(True), Seq([]), counted=True),
                Assign("y", Var("y")),
            ]
        )
        program = Program("edges", body, globals_init={"g": 3, "x": 1})
        assert_same_stream(
            program,
            [
                {"x": 7, "y": 0, "z": -3.5},
                {"x": -4, "y": 3, "z": 0.0},
                {"x": 5, "y": -2, "z": True},
                {"x": 0, "y": 4, "z": -0.0},
            ],
        )

    @pytest.mark.parametrize(
        "expr",
        [BinOp(op, Var("u1"), Var("u2")) for op in ("+", "//", "%", "/", "min")]
        + [
            Compare("<", Var("u1"), Var("u2")),
            BoolOp("or", [Var("u1"), Var("u2")]),
            IfExpr(Var("u1"), Var("u2"), Const(0)),
            UnaryOp("abs", BinOp("max", Var("u1"), Var("u2"))),
        ],
        ids=repr,
    )
    def test_left_operand_reads_first(self, expr):
        """Two unbound names: both interpreters report the left one."""
        program = Program("order", Assign("x", expr))
        for interpreter in (REFERENCE, COMPILED):
            with pytest.raises(KeyError, match="u1"):
                interpreter.execute(program, {})

    def test_deep_nesting_compiles(self):
        """Past CPython's nesting limits, subtrees move into helpers."""
        body = Block(1, 0.5)
        for depth in range(40):
            body = Loop(
                f"l{depth}", Const(1), Seq([body, Assign("k", Var("k") + 1)])
            )
            body = If(f"b{depth}", Compare(">=", Var("k"), Const(0)), body)
        expr = Var("k")
        for depth in range(150):
            expr = BinOp("min" if depth % 2 else "%", expr, Const(depth + 7))
        program = Program(
            "deep", Seq([body, Assign("k", expr)]), globals_init={"k": 0}
        )
        assert_same_stream(program, [{}, {}])
