"""Variables and counters held in Python locals, against the reference.

A compiled program holds in Python locals, for the whole run, every
variable read or written in a loop body (and every loop variable), and every counter site bumped in a loop body.  A
read of a held name that may be unbound checks a sentinel and raises the
reference's ``KeyError``; the written held names and the held sites are
stored back in a ``finally``.  The compiled function lists them in its
``held_names`` and ``held_sites`` attributes.

Every program here must match the tree-walking reference bit for bit
(``assert_same_stream``): ``repr(Work)``, counters, call addresses and
globals, key order included, under both ``execute`` and
``execute_isolated``, and the same ``KeyError`` after the same writes.
"""

import math

import pytest

from repro.analysis.harness import Lab
from repro.programs import interpreter
from repro.programs.expr import BinOp, Compare, Const, IfExpr, Var
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
from repro.workloads.registry import app_names
from tests.programs.reference_interpreter import TreeWalkingInterpreter
from tests.programs.test_compiled_differential import assert_same_stream
from tests.programs.test_folded_tally import run_once

#: The held variables and counter sites of the shipped programs, per app.
#: The task, the instrumented program and the trained slice hold the same
#: variables; the task counts nothing, so it holds no site.
SHIPPED_HELD = {
    "pocketsphinx": (
        ("frame_i", "frame_senones", "senone_units"),
        ("senones", "voiced"),
    ),
    "rijndael": (("rounds",), ("rounds_loop",)),
}


def _counted(site, cond):
    """A counted branch whose taken arm is one Block."""
    return If(site, cond, Block(1), counted=True)


def _held(program, inputs):
    compiled = run_once(program, inputs)
    return compiled.held_names, compiled.held_sites


def _finals_after_error(program, inputs, error):
    """The globals ``execute`` leaves behind when it raises ``error``, per
    interpreter, as reprs of their items (order and types included)."""
    finals = []
    for runner in (TreeWalkingInterpreter(), Interpreter()):
        globals_ = program.fresh_globals()
        with pytest.raises(error):
            runner.execute(program, inputs, globals_)
        finals.append(repr(list(globals_.items())))
    return finals


class TestRule:
    def test_what_is_held(self):
        """Accesses in a loop body, loop variables and sites bumped in a
        loop body; not an elided body, a loop's own
        count or site, or a Hint's site."""
        program = Program(
            "rule",
            Seq(
                [
                    Assign("top", Var("a")),
                    Loop(
                        "outer",
                        Var("n"),
                        Seq(
                            [
                                Assign("body", Var("b") + Var("i")),
                                _counted("branch", Var("c")),
                                Hint("gauge", Var("d"), counted=True),
                                Loop(
                                    "inner", Var("e"), Block(1), counted=True
                                ),
                            ]
                        ),
                        loop_var="i",
                        counted=True,
                    ),
                    Loop(
                        "elided",
                        Var("f"),
                        Assign("skipped", Var("g")),
                        loop_var="j",
                        counted=True,
                        elide_body=True,
                    ),
                    IndirectCall(
                        "call", Var("top"), {0: Block(1)}, counted=True
                    ),
                ]
            ),
        )
        inputs = dict(a=0, b=1, c=True, d=2.5, e=3, f=4, g=5, n=2)
        assert _held(program, inputs) == (
            ("b", "body", "c", "d", "e", "i"),
            ("branch", "inner"),
        )
        assert_same_stream(program, [inputs, dict(inputs, n=0)])

    def test_programs_without_loop_accesses_hold_nothing(self):
        program = Program(
            "flat",
            Seq(
                [
                    Assign("x", Var("a")),
                    Loop("l", Var("n"), Block(2, 3), counted=True),
                    If("b", Var("x"), Block(1), counted=True),
                ]
            ),
        )
        assert _held(program, {"a": 1, "n": 4}) == ((), ())

    def test_loop_variable_of_an_empty_body(self):
        """The loop still runs to bind its variable (and nothing else)."""
        program = Program(
            "empty",
            Seq(
                [
                    Loop("l", Var("n"), Seq([]), loop_var="i"),
                    Assign("g", Var("i")),
                ]
            ),
            globals_init={"g": -1},
        )
        assert _held(program, {"n": 1}) == (("i",), ())
        assert_same_stream(program, [{"n": 3}, {"n": 0}, {"n": 1}])


class TestUnboundReads:
    def test_missing_input_raises_after_the_same_writes(self):
        program = Program(
            "missing",
            Seq(
                [
                    Assign("g", Var("g") + Const(1)),
                    Loop(
                        "l",
                        Var("n"),
                        Seq(
                            [
                                Assign("h", Var("h") + Var("i") + Const(1)),
                                Assign("t", Var("x") * Const(2)),
                                Assign("h", Var("h") + Var("t")),
                            ]
                        ),
                        loop_var="i",
                    ),
                ]
            ),
            globals_init={"g": 0, "h": 0},
        )
        assert _held(program, {"n": 1, "x": 1}) == (("h", "i", "t", "x"), ())
        assert_same_stream(
            program, [{"n": 3, "x": 5}, {"n": 2}, {"n": 0}, {"n": 4, "x": -1}]
        )
        globals_ = program.fresh_globals()
        with pytest.raises(KeyError, match="undefined variable 'x'"):
            Interpreter().execute(program, {"n": 2}, globals_)
        # g before the loop and h in the first trip were written.
        assert globals_ == {"g": 1, "h": 1}

    @pytest.mark.parametrize("op", ["+", "//", "%", "min"])
    def test_left_operand_reads_first(self, op):
        """Two unbound held names: both interpreters report the left one."""
        program = Program(
            "order",
            Loop("l", Const(2), Assign("x", BinOp(op, Var("u1"), Var("u2")))),
        )
        assert _held(program, {"u1": 1, "u2": 2})[0] == ("u1", "u2", "x")
        for runner in (TreeWalkingInterpreter(), Interpreter()):
            with pytest.raises(KeyError, match="u1"):
                runner.execute(program, {})
        assert_same_stream(program, [{}, {"u2": 3}, {"u1": 4, "u2": 3}])

    def test_bound_on_one_path_only(self):
        """A name assigned in one arm of a branch may be unbound after it."""
        program = Program(
            "paths",
            Loop(
                "l",
                Var("n"),
                Seq(
                    [
                        If(
                            "b",
                            Compare(">", Var("x"), Var("i")),
                            Assign("t", Var("i")),
                        ),
                        Assign("g", Var("g") + Var("t")),
                    ]
                ),
                loop_var="i",
            ),
            globals_init={"g": 0},
        )
        assert_same_stream(
            program,
            [
                {"n": 3, "x": 1},
                {"n": 3, "x": 0},
                {"n": 0, "x": 0},
                {"n": 2, "x": 9},
            ],
        )


class TestErrorsMidLoop:
    @staticmethod
    def _program(trap):
        """A loop over i that writes globals, then hits ``trap`` at i = 3."""
        return Program(
            "midway",
            Loop(
                "l",
                Var("n"),
                Seq(
                    [
                        Assign("g", Var("g") + Var("i")),
                        If("late", Compare(">=", Var("i"), Const(3)), trap),
                        Assign("h", Var("g") * Const(2)),
                    ]
                ),
                loop_var="i",
            ),
            # The loop variable is a global too: it is stored back.
            globals_init={"g": 0, "h": 0, "i": -1},
        )

    def test_key_error_leaves_the_same_globals(self):
        program = self._program(Assign("t", Var("missing")))
        assert_same_stream(
            program, [{"n": 2}, {"n": 5}, {"n": 4, "missing": 1}]
        )
        finals = _finals_after_error(program, {"n": 5}, KeyError)
        assert finals[0] == finals[1] == repr([("g", 6), ("h", 6), ("i", 3)])

    def test_other_errors_leave_the_same_globals(self):
        """``int(inf)`` as an inner trip count raises OverflowError."""
        count = IfExpr(Var("i"), Const(math.inf), Const(0))
        inner = Loop("inner", count, Block(1))
        program = self._program(inner)
        finals = _finals_after_error(program, {"n": 5}, OverflowError)
        assert finals[0] == finals[1] == repr([("g", 6), ("h", 6), ("i", 3)])


class TestCounters:
    def test_held_sites_keep_first_bump_key_order(self):
        """Held sites first bumped after unheld ones, in another order than
        they are emitted, and before an unheld one."""
        parity = BinOp("%", Var("i"), Const(2))
        odd, even = (Compare("==", parity, Const(k)) for k in (1, 0))
        program = Program(
            "order",
            Seq(
                [
                    _counted("early", Compare(">", Var("x"), Const(0))),
                    Loop(
                        "l",
                        Var("n"),
                        Seq(
                            [
                                _counted("odd", odd),
                                _counted("even", even),
                            ]
                        ),
                        loop_var="i",
                        counted=True,
                    ),
                    _counted("late", Const(True)),
                ]
            ),
        )
        assert _held(program, {"x": 1, "n": 1})[1] == ("even", "odd")
        result = Interpreter().execute(program, {"x": 1, "n": 3})
        counters = list(result.features.counters)
        assert counters == ["early", "l", "even", "odd", "late"]
        assert_same_stream(
            program,
            [
                {"x": 1, "n": 3},
                {"x": 0, "n": 1},
                {"x": 1, "n": 0},
                {"x": 0, "n": 2},
            ],
        )

    def test_site_written_in_and_out_of_loops(self):
        """One held site bumped outside and inside a loop, by a loop in a
        loop and set by a Hint (duplicate sites the interpreter still
        runs), beside an indirect call's addresses."""
        shared = _counted("shared", Compare(">", Var("x"), Const(0)))
        program = Program(
            "shared",
            Seq(
                [
                    shared,
                    Loop(
                        "l",
                        Var("n"),
                        Seq(
                            [
                                shared,
                                Assign("k", Const(0)),
                                Loop(
                                    "w",
                                    Var("i"),
                                    Assign("k", Var("k") + Const(1)),
                                    counted=True,
                                ),
                                IndirectCall(
                                    "call",
                                    Var("i"),
                                    {1: Block(1)},
                                    counted=True,
                                ),
                            ]
                        ),
                        loop_var="i",
                    ),
                    Hint("shared", Var("x") * Const(0.5), counted=True),
                    shared,
                ]
            ),
        )
        assert _held(program, {"x": 1, "n": 1}) == (
            ("i", "k", "x"),
            ("shared", "w"),
        )
        assert_same_stream(
            program,
            [{"x": 1, "n": 4}, {"x": 0, "n": 3}, {"x": 2, "n": 0}, {"n": 2}],
        )


class TestDeepNesting:
    def test_through_statement_helpers(self):
        """Past ``_MAX_LOOPS`` nested loops the rest moves into a helper,
        which takes and gives back held state through ns and cnt: held
        reads, writes and bumps on both sides, and errors inside it."""
        shared = _counted("both", Compare(">=", Var("i"), Const(0)))
        body = Seq(
            [shared, Assign("g", Var("g") + Var("x")), Assign("t", Var("i"))]
        )
        for depth in range(interpreter._MAX_LOOPS + 2):
            body = Loop(
                f"l{depth}",
                Var("n") if depth % 5 == 0 else Const(1),
                Seq([shared, Assign("k", Var("k") + Const(1)), body]),
                loop_var="i",
                counted=True,
            )
        program = Program(
            "deep",
            Seq([body, Assign("g", Var("g") + Var("t"))]),
            globals_init={"g": 0, "k": 0},
        )
        compiled = run_once(program, {"n": 1, "x": 1})
        assert any(name.startswith("part") for name in compiled.__globals__)
        assert compiled.held_names == ("g", "i", "k", "n", "t", "x")
        assert "both" in compiled.held_sites
        assert_same_stream(
            program,
            [{"n": 2, "x": 1}, {"n": 0, "x": 1}, {"n": 2}, {"n": 1, "x": 2}],
        )
        finals = _finals_after_error(program, {"n": 2}, KeyError)
        assert finals[0] == finals[1]

    def test_through_expression_helpers(self):
        """Past ``_MAX_EXPR_DEPTH`` an expression moves into a helper that
        takes the held locals as they are and checks them where read."""
        expr = Var("i")
        for depth in range(60):
            leaf = Var("t") if depth == 30 else Const(depth)
            expr = BinOp("max" if depth % 2 else "+", expr, leaf)
        program = Program(
            "wide",
            Loop(
                "l",
                Var("n"),
                Seq([Assign("g", expr), Assign("t", Var("i"))]),
                loop_var="i",
            ),
            globals_init={"g": 0},
        )
        assert _held(program, {"n": 1, "t": 0})[0] == ("g", "i", "t")
        assert_same_stream(
            program, [{"n": 3, "t": 5}, {"n": 3}, {"n": 0}, {"n": 2, "t": -7}]
        )


def test_shipped_programs_hold_these():
    """Only pocketsphinx and rijndael access variables or bump counters
    in a loop; every other shipped program compiles as it did before."""
    lab = Lab()
    for app_name in app_names():
        app = lab.app(app_name)
        controller = lab.controller(app_name)
        inputs = app.inputs(1, 3)[0]
        names, sites = SHIPPED_HELD.get(app_name, ((), ()))
        for program, expected in (
            (app.task.program, (names, ())),
            (controller.instrumented.program, (names, sites)),
            (controller.slice.program, (names, sites)),
        ):
            assert _held(program, inputs) == expected, program.name
